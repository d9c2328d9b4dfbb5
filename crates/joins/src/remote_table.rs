//! The wire format of a published bucket table, read with one-sided
//! RDMA (DESIGN.md §11).
//!
//! After the build phase of a one-sided join, each owner lays its bucket
//! table out in a registered memory region and publishes the handle;
//! probe-side hosts then fetch buckets directly with RDMA READ — no
//! receiver CPU. The layout follows the one-sided hash-table playbook
//! (*Hash Table Design for RDMA*): a fixed-size directory so a reader
//! can address any bucket after one directory fetch, and a seqlock-style
//! version pair around every bucket so a single READ is enough to detect
//! a torn snapshot.
//!
//! ```text
//! region := [nbuckets: u32][entry_size: u32]          ; 8-byte header
//!           nbuckets x [offset: u32][len: u32]        ; directory
//!           nbuckets x bucket                         ; payload
//! bucket := [version: u32][count: u32]                ; seqlock header
//!           count x entry_size bytes                  ; tuple entries
//!           [version: u32]                            ; seqlock trailer
//! ```
//!
//! Offsets are relative to the region start, so `RemoteMr`-relative READs
//! need no base-address arithmetic. The writer protocol is the seqlock
//! discipline: bump *both* version words to an odd value, mutate the
//! entries, then bump both to the next even value. A reader accepts a
//! bucket snapshot iff the header version is even **and** the trailer
//! matches it — one READ spanning the bucket observes either a stable
//! snapshot or a detectable tear ([`TornRead`]), never silent garbage.
//! A bucket is selected by a multiplicative hash of the whole key, not
//! by the radix bits a local [`crate::BucketTable`] addresses: the
//! bucket ranges are the wire format, so they set the span of every READ
//! and, with it, the one-sided plane's virtual time.

use std::ops::Range;

use rsj_workload::{decode_all, Tuple};

/// Bytes of the region header (`nbuckets`, `entry_size`).
pub const REMOTE_TABLE_HEADER: usize = 8;
/// Bytes of one directory entry (`offset`, `len`).
pub const REMOTE_DIR_ENTRY: usize = 8;
/// Bytes of one bucket's seqlock header (`version`, `count`).
pub const BUCKET_HEADER: usize = 8;
/// Bytes of one bucket's seqlock trailer (the version copy).
pub const BUCKET_TRAILER: usize = 4;

/// Multiplicative hashing (Knuth): the bucket of `key` in a published
/// table is `hash(key) & (nbuckets - 1)`. It is this format's layout
/// rule only; a local [`crate::BucketTable`] addresses buckets by radix
/// bits instead.
#[inline]
fn hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

/// Number of buckets a remote table over `ntuples` tuples uses: the
/// same power-of-two sizing as the local [`crate::BucketTable`], under a
/// different bucket rule (`hash`). A probe-side host computes it from the
/// histogram-announced tuple count without fetching anything.
pub fn remote_nbuckets(ntuples: usize) -> usize {
    ntuples.max(1).next_power_of_two()
}

/// Byte length of the directory prefix (header + entries) of a table
/// with `nbuckets` buckets: the size of the one READ that makes every
/// bucket addressable.
pub fn remote_dir_len(nbuckets: usize) -> usize {
    REMOTE_TABLE_HEADER + nbuckets * REMOTE_DIR_ENTRY
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(bytes: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(b)
}

/// Serialize a bucket table over `r` into the published-region format
/// (every bucket stable: version 0). The caller registers a region of
/// exactly this length and copies the bytes in.
pub fn encode_remote_table<T: Tuple>(r: &[T]) -> Vec<u8> {
    let nbuckets = remote_nbuckets(r.len());
    let mask = (nbuckets - 1) as u64;
    let bucket_of = |t: &T| (hash(t.key()) & mask) as usize;
    // Counting sort by bucket, as the local contiguous build does: count
    // into `next[b + 1]`, prefix-sum so `next[b]` is bucket b's first slot
    // in `order`, then place each tuple's index at its bucket's cursor.
    // Afterwards `next[b]` is one past bucket b's last slot.
    let mut next = vec![0usize; nbuckets + 1];
    for t in r {
        next[bucket_of(t) + 1] += 1;
    }
    for b in 0..nbuckets {
        next[b + 1] += next[b];
    }
    let mut order = vec![0u32; r.len()];
    for (i, t) in r.iter().enumerate() {
        let slot = &mut next[bucket_of(t)];
        order[*slot] = i as u32;
        *slot += 1;
    }
    let entry = T::SIZE;
    let mut out = Vec::with_capacity(
        remote_dir_len(nbuckets) + r.len() * entry + nbuckets * (BUCKET_HEADER + BUCKET_TRAILER),
    );
    put_u32(&mut out, nbuckets as u32);
    put_u32(&mut out, entry as u32);
    // Bucket b's tuples are `order[ends[b - 1]..ends[b]]` (from 0 for the
    // first), in input order (order inside a bucket is immaterial to the
    // join result).
    let ends = &next[..nbuckets];
    // Directory: bucket i starts after the directory plus the preceding
    // buckets' full (header + entries + trailer) extents.
    let (mut offset, mut lo) = (remote_dir_len(nbuckets), 0);
    for &hi in ends {
        let len = BUCKET_HEADER + (hi - lo) * entry + BUCKET_TRAILER;
        put_u32(&mut out, offset as u32);
        put_u32(&mut out, len as u32);
        (offset, lo) = (offset + len, hi);
    }
    // Payload: each bucket's extent, its tuples written straight in.
    let mut lo = 0;
    for &hi in ends {
        put_u32(&mut out, 0); // version: even = stable
        put_u32(&mut out, (hi - lo) as u32);
        let at = out.len();
        out.resize(at + (hi - lo) * entry, 0);
        for (&i, slot) in order[lo..hi].iter().zip(out[at..].chunks_exact_mut(entry)) {
            r[i as usize].write_to(slot);
        }
        put_u32(&mut out, 0); // trailer
        lo = hi;
    }
    out
}

/// A decoded directory: the probe side fetches this prefix once per
/// `(owner, partition)`, caches it, and addresses buckets from it.
#[derive(Clone, Debug)]
pub struct RemoteDirectory {
    entry_size: usize,
    /// Per-bucket `(offset, len)` extents, region-relative.
    entries: Vec<(u32, u32)>,
}

impl RemoteDirectory {
    /// Decode a directory from the region prefix (at least
    /// [`remote_dir_len`] bytes for the advertised bucket count).
    pub fn decode(bytes: &[u8]) -> RemoteDirectory {
        assert!(bytes.len() >= REMOTE_TABLE_HEADER, "directory truncated");
        let nbuckets = get_u32(bytes, 0) as usize;
        let entry_size = get_u32(bytes, 4) as usize;
        assert!(
            nbuckets.is_power_of_two() && entry_size > 0,
            "malformed remote-table header"
        );
        assert!(
            bytes.len() >= remote_dir_len(nbuckets),
            "directory truncated"
        );
        let entries = (0..nbuckets)
            .map(|b| {
                let at = REMOTE_TABLE_HEADER + b * REMOTE_DIR_ENTRY;
                (get_u32(bytes, at), get_u32(bytes, at + 4))
            })
            .collect();
        RemoteDirectory {
            entry_size,
            entries,
        }
    }

    /// Number of buckets in the table.
    pub fn nbuckets(&self) -> usize {
        self.entries.len()
    }

    /// Tuple entry size in bytes.
    pub fn entry_size(&self) -> usize {
        self.entry_size
    }

    /// The bucket a key hashes into (the format's `hash` rule).
    pub fn bucket_of(&self, key: u64) -> usize {
        (hash(key) & (self.entries.len() - 1) as u64) as usize
    }

    /// Region-relative byte range of bucket `b` — the READ to issue.
    pub fn bucket_range(&self, b: usize) -> Range<usize> {
        let (off, len) = self.entries[b];
        off as usize..(off + len) as usize
    }

    /// Total region length implied by the directory (end of the last
    /// bucket).
    pub fn region_len(&self) -> usize {
        self.entries
            .iter()
            .map(|&(off, len)| (off + len) as usize)
            .max()
            .unwrap_or(remote_dir_len(self.entries.len()))
    }
}

/// A bucket snapshot failed the seqlock check: the version was odd
/// (writer mid-mutation) or the trailer disagreed with the header (the
/// READ spanned a version bump). The reader retries the READ.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TornRead;

/// The entry bytes of one bucket snapshot fetched by RDMA READ, probed
/// in place: `count` back-to-back `T` encodings if the snapshot is
/// stable, or [`TornRead`] if the seqlock version pair proves the writer
/// raced the read.
pub fn bucket_entries<T: Tuple>(bytes: &[u8]) -> Result<&[u8], TornRead> {
    assert!(
        bytes.len() >= BUCKET_HEADER + BUCKET_TRAILER,
        "bucket snapshot shorter than its framing"
    );
    let version = get_u32(bytes, 0);
    let trailer = get_u32(bytes, bytes.len() - BUCKET_TRAILER);
    if !version.is_multiple_of(2) || version != trailer {
        return Err(TornRead);
    }
    let count = get_u32(bytes, 4) as usize;
    let payload = &bytes[BUCKET_HEADER..bytes.len() - BUCKET_TRAILER];
    assert_eq!(
        payload.len(),
        count * T::SIZE,
        "stable bucket length disagrees with its count"
    );
    Ok(payload)
}

/// Decode one bucket snapshot into its tuples: [`bucket_entries`],
/// collected.
pub fn decode_bucket<T: Tuple>(bytes: &[u8]) -> Result<Vec<T>, TornRead> {
    bucket_entries::<T>(bytes).map(decode_all)
}

/// Writer-side seqlock entry: bump both version words of bucket
/// `range` (as returned by [`RemoteDirectory::bucket_range`]) to the
/// next odd value. Concurrent READ snapshots of the bucket now decode
/// as [`TornRead`] until [`end_bucket_mutation`].
pub fn begin_bucket_mutation(region: &mut [u8], range: Range<usize>) {
    let v = get_u32(region, range.start);
    assert!(v.is_multiple_of(2), "nested bucket mutation");
    set_versions(region, range, v + 1);
}

/// Writer-side seqlock exit: bump both version words of the bucket to
/// the next even value, making the new contents readable.
pub fn end_bucket_mutation(region: &mut [u8], range: Range<usize>) {
    let v = get_u32(region, range.start);
    assert!(v % 2 == 1, "ending a mutation that never began");
    set_versions(region, range, v + 1);
}

fn set_versions(region: &mut [u8], range: Range<usize>, v: u32) {
    region[range.start..range.start + 4].copy_from_slice(&v.to_le_bytes());
    region[range.end - BUCKET_TRAILER..range.end].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BucketTable;
    use rsj_workload::Tuple16;

    fn tuples(n: u64) -> Vec<Tuple16> {
        (0..n).map(|i| Tuple16::new(i % 37, i)).collect()
    }

    #[test]
    fn roundtrip_matches_local_build() {
        let r = tuples(200);
        let s = tuples(300);
        let region = encode_remote_table(&r);
        let dir = RemoteDirectory::decode(&region);
        assert_eq!(dir.nbuckets(), remote_nbuckets(r.len()));
        assert_eq!(dir.region_len(), region.len());
        let local = BucketTable::build(&r, 0).probe_all(&s);
        let mut matches = 0u64;
        let mut key_sum = 0u64;
        for probe in &s {
            let b = dir.bucket_of(probe.key());
            let bucket: Vec<Tuple16> =
                decode_bucket(&region[dir.bucket_range(b)]).expect("stable table");
            for entry in bucket {
                if entry.key() == probe.key() {
                    matches += 1;
                    key_sum = key_sum.wrapping_add(probe.key());
                }
            }
        }
        assert_eq!(matches, local.matches);
        assert_eq!(key_sum, local.s_key_sum);
    }

    #[test]
    fn empty_relation_still_publishes_a_directory() {
        let region = encode_remote_table::<Tuple16>(&[]);
        let dir = RemoteDirectory::decode(&region);
        assert_eq!(dir.nbuckets(), 1);
        let bucket: Vec<Tuple16> = decode_bucket(&region[dir.bucket_range(0)]).expect("stable");
        assert!(bucket.is_empty());
    }

    #[test]
    fn torn_snapshot_is_detected_and_clears() {
        let r = tuples(64);
        let mut region = encode_remote_table(&r);
        let dir = RemoteDirectory::decode(&region);
        let b = dir.bucket_of(5);
        let range = dir.bucket_range(b);
        begin_bucket_mutation(&mut region, range.clone());
        assert_eq!(
            decode_bucket::<Tuple16>(&region[range.clone()]),
            Err(TornRead),
            "odd version must read as torn"
        );
        end_bucket_mutation(&mut region, range.clone());
        let again: Vec<Tuple16> = decode_bucket(&region[range.clone()]).expect("stable again");
        assert!(again.iter().all(|t| t.key() == 5));

        // A snapshot spanning a version bump (stale trailer) is torn too.
        let mut stale = region[range.clone()].to_vec();
        let tail = stale.len() - BUCKET_TRAILER;
        stale[tail..].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode_bucket::<Tuple16>(&stale), Err(TornRead));
    }
}
