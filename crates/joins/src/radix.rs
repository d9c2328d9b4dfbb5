//! Radix partitioning kernels (§3.1).
//!
//! The radix hash join determines a tuple's partition from `b` low-order
//! key bits, split across `p` passes so that the number of partitions
//! created *simultaneously* (2^bᵢ) never exceeds the TLB entry / cache line
//! budget (Manegold et al.). These kernels are shared by the single-machine
//! baseline and the distributed join's local passes.
//!
//! ## Software write-combining (SWWC)
//!
//! The default scatter path stages tuples in per-partition cache-line-sized
//! buffers and flushes each line to the output in one bulk copy — the §3.1
//! optimisation that keeps one TLB entry and one open cache line per
//! partition hot instead of scattering single tuples across 2^b cold
//! destinations. A [`Partitioner`] owns the staging buffers (plus the
//! histogram and cursor arrays) so callers that loop over many partitions
//! reuse one allocation set instead of paying `malloc` per pass; it also
//! offers a fused pass ([`Partitioner::partition_with_hist`]) that skips
//! the histogram scan when the counts are already known.
//!
//! A pass reads its input as a list of *pieces*
//! ([`Partitioner::partition_pieces`]) and partitions their concatenation
//! without building it: the distributed join's local pass partitions a
//! landed partition straight out of each worker's kept tuples. A single
//! slice is the one-piece case of the same histogram and scatter code.

use rsj_workload::Tuple;

/// The partition index of `key` for a pass consuming `bits` bits starting
/// at `lo_bit`.
#[inline]
pub fn partition_of(key: u64, lo_bit: u32, bits: u32) -> usize {
    debug_assert!(bits > 0 && lo_bit + bits <= 64);
    ((key >> lo_bit) & ((1u64 << bits) - 1)) as usize
}

/// Count tuples per partition for one pass, writing into `hist` (which is
/// cleared and resized to `2^bits`), so a looping caller reuses one
/// buffer.
pub fn histogram_into<T: Tuple>(tuples: &[T], lo_bit: u32, bits: u32, hist: &mut Vec<u64>) {
    histogram_pieces_into(&[tuples], lo_bit, bits, hist);
}

/// [`histogram_into`] over the concatenation of `pieces`.
fn histogram_pieces_into<T: Tuple, P: AsRef<[T]>>(
    pieces: &[P],
    lo_bit: u32,
    bits: u32,
    hist: &mut Vec<u64>,
) {
    hist.clear();
    hist.resize(1usize << bits, 0);
    for piece in pieces {
        for t in piece.as_ref() {
            hist[partition_of(t.key(), lo_bit, bits)] += 1;
        }
    }
}

/// The output of one partitioning pass: tuples reordered so that partition
/// `p` occupies `data[offsets[p]..offsets[p + 1]]` — the contiguous layout
/// real radix joins use to keep partitions cache-friendly.
pub struct Partitioned<T> {
    /// Reordered tuples.
    pub data: Vec<T>,
    /// `parts + 1` prefix offsets into `data`.
    pub offsets: Vec<usize>,
}

impl<T: Tuple> Partitioned<T> {
    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The tuples of partition `p`.
    pub fn part(&self, p: usize) -> &[T] {
        &self.data[self.offsets[p]..self.offsets[p + 1]]
    }

    /// Sizes of all partitions, in tuples — a borrowed iterator, so looping
    /// callers never pay a per-call `Vec` allocation.
    pub fn sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|w| w[1] - w[0])
    }
}

/// Concatenate several partitioned slices of the same input into one
/// [`Partitioned`] with the same partition count: partition `j` of the
/// result is the concatenation of partition `j` of every slice. Used by
/// the parallel local pass, where an oversized partition is second-pass
/// partitioned by several threads in slices (in the original this is a
/// shared-histogram scatter with no extra copy; the copy here is a
/// simulator artifact and is not charged).
pub fn concat_partitioned<T: Tuple>(slices: &[Partitioned<T>], parts: usize) -> Partitioned<T> {
    let mut offsets = vec![0usize; parts + 1];
    for s in slices {
        assert_eq!(s.parts(), parts, "slice partition count mismatch");
        for j in 0..parts {
            offsets[j + 1] += s.part(j).len();
        }
    }
    for j in 0..parts {
        offsets[j + 1] += offsets[j];
    }
    let mut data: Vec<T> = vec![T::new(0, 0); offsets[parts]];
    let mut cursor = offsets[..parts].to_vec();
    for s in slices {
        for j in 0..parts {
            let src = s.part(j);
            data[cursor[j]..cursor[j] + src.len()].copy_from_slice(src);
            cursor[j] += src.len();
        }
    }
    Partitioned { data, offsets }
}

/// Target size of one software write-combining staging buffer. One cache
/// line is the paper's choice (§3.1): the line being filled stays in L1
/// and is written out with a single full-line store burst.
const SWWC_LINE_BYTES: usize = 64;

/// Partition counts below which staging overhead exceeds its benefit —
/// with few destinations the plain scatter's write set is already
/// cache-resident, so the extra stage-then-copy is pure cost.
const SWWC_MIN_PARTS: usize = 16;

/// Reusable radix partitioning state: histogram, scatter cursors, and the
/// SWWC staging buffers. Build one per worker and call
/// [`Partitioner::partition`] in a loop; all scratch allocations are
/// retained and reused across calls.
pub struct Partitioner<T> {
    hist: Vec<u64>,
    cursors: Vec<usize>,
    /// `parts * lane` staging tuples (one cache line per partition).
    stage: Vec<T>,
    /// Per-partition staging fill counts (`< lane`, so `u8` suffices).
    fill: Vec<u8>,
}

impl<T: Tuple> Default for Partitioner<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Tuple> Partitioner<T> {
    /// Tuples per staging line (≥ 1 even for oversized tuple types).
    #[inline]
    fn lane() -> usize {
        (SWWC_LINE_BYTES / T::SIZE).max(1)
    }

    /// A partitioner with empty scratch buffers; they grow on first use and
    /// are reused afterwards.
    pub fn new() -> Partitioner<T> {
        Partitioner {
            hist: Vec::new(),
            cursors: Vec::new(),
            stage: Vec::new(),
            fill: Vec::new(),
        }
    }

    /// One full partitioning pass: histogram, prefix sum, SWWC scatter.
    /// The one-piece case of [`Partitioner::partition_pieces`].
    pub fn partition(&mut self, input: &[T], lo_bit: u32, bits: u32) -> Partitioned<T> {
        self.partition_pieces(&[input], lo_bit, bits)
    }

    /// One full partitioning pass over the concatenation of `pieces`,
    /// reading each piece where it lies: the output equals
    /// [`Partitioner::partition`] of the pieces joined in order, and the
    /// joined copy never exists.
    pub fn partition_pieces<P: AsRef<[T]>>(
        &mut self,
        pieces: &[P],
        lo_bit: u32,
        bits: u32,
    ) -> Partitioned<T> {
        let mut hist = std::mem::take(&mut self.hist);
        histogram_pieces_into(pieces, lo_bit, bits, &mut hist);
        let out = self.scatter_pass(pieces, lo_bit, bits, &hist);
        self.hist = hist;
        out
    }

    /// Fused pass for callers that already counted: skips the histogram
    /// scan and goes straight to prefix sum + scatter. `hist` must hold
    /// exactly `2^bits` counts summing to `input.len()`.
    pub fn partition_with_hist(
        &mut self,
        input: &[T],
        lo_bit: u32,
        bits: u32,
        hist: &[u64],
    ) -> Partitioned<T> {
        assert_eq!(hist.len(), 1usize << bits, "histogram width mismatch");
        self.scatter_pass(&[input], lo_bit, bits, hist)
    }

    /// Prefix-sum `hist` into offsets, then scatter `pieces` into a fresh
    /// output buffer (returned; scratch state stays owned by `self`).
    fn scatter_pass<P: AsRef<[T]>>(
        &mut self,
        pieces: &[P],
        lo_bit: u32,
        bits: u32,
        hist: &[u64],
    ) -> Partitioned<T> {
        let parts = hist.len();
        // lint: allow-hot-alloc(offsets move into the returned Partitioned)
        let mut offsets = Vec::with_capacity(parts + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &h in hist {
            acc += h as usize;
            offsets.push(acc);
        }
        let len: usize = pieces.iter().map(|piece| piece.as_ref().len()).sum();
        debug_assert_eq!(acc, len);
        self.cursors.clear();
        self.cursors.extend_from_slice(&offsets[..parts]);
        // T is small and Copy, so a write-once pass over an uninitialized
        // buffer is not worth the unsafety; zero-fill, overwrite. This is
        // the returned output, not scratch, so it cannot live in `self`.
        // lint: allow-hot-alloc(output buffer moves into the returned Partitioned)
        let mut data: Vec<T> = vec![T::new(0, 0); len];
        if parts >= SWWC_MIN_PARTS && len >= parts * Self::lane() {
            self.scatter_swwc(pieces, lo_bit, bits, &mut data);
        } else {
            scatter_direct(pieces, lo_bit, bits, &mut data, &mut self.cursors);
        }
        Partitioned { data, offsets }
    }

    /// §3.1 software write-combining scatter: collect tuples in a
    /// cache-line staging buffer per partition and flush full lines (and
    /// the tail remainders) with bulk copies.
    fn scatter_swwc<P: AsRef<[T]>>(
        &mut self,
        pieces: &[P],
        lo_bit: u32,
        bits: u32,
        data: &mut [T],
    ) {
        let parts = 1usize << bits;
        let lane = Self::lane();
        self.stage.clear();
        self.stage.resize(parts * lane, T::new(0, 0));
        self.fill.clear();
        self.fill.resize(parts, 0);
        for piece in pieces {
            for t in piece.as_ref() {
                let p = partition_of(t.key(), lo_bit, bits);
                let f = self.fill[p] as usize;
                self.stage[p * lane + f] = *t;
                if f + 1 == lane {
                    let cur = self.cursors[p];
                    data[cur..cur + lane].copy_from_slice(&self.stage[p * lane..(p + 1) * lane]);
                    self.cursors[p] = cur + lane;
                    self.fill[p] = 0;
                } else {
                    self.fill[p] = (f + 1) as u8;
                }
            }
        }
        // Flush partial lines.
        for p in 0..parts {
            let f = self.fill[p] as usize;
            if f > 0 {
                let cur = self.cursors[p];
                data[cur..cur + f].copy_from_slice(&self.stage[p * lane..p * lane + f]);
                self.cursors[p] = cur + f;
            }
        }
    }
}

/// Plain one-tuple-at-a-time scatter, used when the partition fan-out is
/// too small for staging to pay off.
fn scatter_direct<T: Tuple, P: AsRef<[T]>>(
    pieces: &[P],
    lo_bit: u32,
    bits: u32,
    data: &mut [T],
    cursors: &mut [usize],
) {
    for piece in pieces {
        for t in piece.as_ref() {
            let p = partition_of(t.key(), lo_bit, bits);
            data[cursors[p]] = *t;
            cursors[p] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rsj_workload::Tuple16;

    #[test]
    fn partition_of_extracts_bit_ranges() {
        assert_eq!(partition_of(0b1011_0110, 0, 4), 0b0110);
        assert_eq!(partition_of(0b1011_0110, 4, 4), 0b1011);
        assert_eq!(partition_of(u64::MAX, 60, 4), 0b1111);
    }

    #[test]
    fn histogram_counts_every_tuple_once() {
        let tuples: Vec<Tuple16> = (0..1000u64).map(|k| Tuple16::new(k, k)).collect();
        let mut hist = Vec::new();
        histogram_into(&tuples, 0, 4, &mut hist);
        assert_eq!(hist.len(), 16);
        assert_eq!(hist.iter().sum::<u64>(), 1000);
        // Dense keys spread evenly over low bits.
        assert!(hist.iter().all(|&h| (62..=63).contains(&h)));
    }

    #[test]
    fn histogram_into_reuses_buffer() {
        let tuples: Vec<Tuple16> = (0..64u64).map(|k| Tuple16::new(k, k)).collect();
        let mut hist = Vec::new();
        histogram_into(&tuples, 0, 3, &mut hist);
        assert_eq!(hist.iter().sum::<u64>(), 64);
        // A second pass over different bits fully overwrites the counts.
        histogram_into(&tuples[..32], 0, 5, &mut hist);
        assert_eq!(hist.len(), 32);
        assert_eq!(hist.iter().sum::<u64>(), 32);
    }

    #[test]
    fn partition_groups_by_radix_and_preserves_multiset() {
        let tuples: Vec<Tuple16> = (0..512u64).map(|i| Tuple16::new(i * 7 + 3, i)).collect();
        let parted = Partitioner::new().partition(&tuples, 0, 5);
        assert_eq!(parted.parts(), 32);
        assert_eq!(parted.data.len(), tuples.len());
        for p in 0..32 {
            for t in parted.part(p) {
                assert_eq!(partition_of(t.key(), 0, 5), p);
            }
        }
        let mut orig: Vec<u64> = tuples.iter().map(|t| t.rid()).collect();
        let mut got: Vec<u64> = parted.data.iter().map(|t| t.rid()).collect();
        orig.sort_unstable();
        got.sort_unstable();
        assert_eq!(orig, got);
        // sizes() agrees with the offsets.
        assert_eq!(parted.sizes().sum::<usize>(), tuples.len());
    }

    /// The SWWC scatter and the direct scatter must produce *identical*
    /// output (not merely equivalent): tuple order within a partition is
    /// input order for both.
    #[test]
    fn swwc_scatter_matches_direct_scatter_exactly() {
        let tuples: Vec<Tuple16> = (0..2_000u64)
            .map(|i| Tuple16::new(i.wrapping_mul(0x9E37_79B9).rotate_left(17), i))
            .collect();
        for bits in [5u32, 6, 8] {
            let via_swwc = Partitioner::new().partition(&tuples, 0, bits);
            let mut cursors: Vec<usize> = via_swwc.offsets[..via_swwc.parts()].to_vec();
            let mut direct = vec![Tuple16::new(0, 0); tuples.len()];
            scatter_direct(&[&tuples[..]], 0, bits, &mut direct, &mut cursors);
            assert!(
                via_swwc.parts() >= SWWC_MIN_PARTS,
                "test must exercise the SWWC path"
            );
            assert_eq!(via_swwc.data, direct, "bits={bits}");
        }
    }

    #[test]
    fn partition_with_hist_skips_recount() {
        let tuples: Vec<Tuple16> = (0..777u64).map(|i| Tuple16::new(i * 31 + 7, i)).collect();
        let mut pt = Partitioner::new();
        let whole = pt.partition(&tuples, 1, 6);
        let mut hist = Vec::new();
        histogram_into(&tuples, 1, 6, &mut hist);
        let fused = pt.partition_with_hist(&tuples, 1, 6, &hist);
        assert_eq!(whole.offsets, fused.offsets);
        assert_eq!(whole.data, fused.data);
    }

    #[test]
    fn partitioner_reuse_across_widths() {
        let tuples: Vec<Tuple16> = (0..600u64).map(|i| Tuple16::new(i * 3 + 1, i)).collect();
        let mut pt = Partitioner::new();
        for bits in [2u32, 7, 3, 9] {
            let parted = pt.partition(&tuples, 0, bits);
            assert_eq!(parted.parts(), 1usize << bits);
            assert_eq!(parted.data.len(), tuples.len());
            for p in 0..parted.parts() {
                for t in parted.part(p) {
                    assert_eq!(partition_of(t.key(), 0, bits), p);
                }
            }
        }
    }

    #[test]
    fn concat_partitioned_equals_single_pass() {
        let tuples: Vec<Tuple16> = (0..3_000u64).map(|i| Tuple16::new(i * 11 + 5, i)).collect();
        let mut pt = Partitioner::new();
        let whole = pt.partition(&tuples, 2, 4);
        // Partition three uneven slices independently, then concatenate.
        let slices = [
            pt.partition(&tuples[..700], 2, 4),
            pt.partition(&tuples[700..1900], 2, 4),
            pt.partition(&tuples[1900..], 2, 4),
        ];
        let merged = concat_partitioned(&slices, 16);
        assert_eq!(merged.data.len(), whole.data.len());
        for j in 0..16 {
            let mut a: Vec<u64> = whole.part(j).iter().map(|t| t.rid()).collect();
            let mut b: Vec<u64> = merged.part(j).iter().map(|t| t.rid()).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "partition {j}");
        }
    }

    #[test]
    fn concat_partitioned_empty_input() {
        let merged = concat_partitioned::<Tuple16>(&[], 8);
        assert_eq!(merged.parts(), 8);
        assert!(merged.data.is_empty());
    }

    #[test]
    fn two_pass_partitioning_equals_one_wide_pass() {
        // Multi-pass refinement must produce the same partition contents as
        // a single pass over all bits (the radix join's core invariant).
        let tuples: Vec<Tuple16> = (0..4096u64).map(|i| Tuple16::new(i * 13 + 1, i)).collect();
        let mut pt = Partitioner::new();
        let one_pass = pt.partition(&tuples, 0, 6);
        let coarse = pt.partition(&tuples, 0, 3);
        for p1 in 0..coarse.parts() {
            let refined = pt.partition(coarse.part(p1), 3, 3);
            for p2 in 0..refined.parts() {
                let wide_idx = (p2 << 3) | p1; // low bits first
                let mut a: Vec<u64> = refined.part(p2).iter().map(|t| t.key()).collect();
                let mut b: Vec<u64> = one_pass.part(wide_idx).iter().map(|t| t.key()).collect();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "coarse {p1} refined {p2}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_partition_is_a_permutation(keys in prop::collection::vec(any::<u64>(), 0..300),
                                           bits in 1u32..8) {
            let tuples: Vec<Tuple16> =
                keys.iter().enumerate().map(|(i, &k)| Tuple16::new(k, i as u64)).collect();
            let parted = Partitioner::new().partition(&tuples, 0, bits);
            prop_assert_eq!(parted.parts(), 1usize << bits);
            prop_assert_eq!(*parted.offsets.last().unwrap(), tuples.len());
            let mut orig: Vec<(u64, u64)> = tuples.iter().map(|t| (t.key(), t.rid())).collect();
            let mut got: Vec<(u64, u64)> = parted.data.iter().map(|t| (t.key(), t.rid())).collect();
            orig.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(orig, got);
            // Each partition holds only its own radix values.
            for p in 0..parted.parts() {
                for t in parted.part(p) {
                    prop_assert_eq!(partition_of(t.key(), 0, bits), p);
                }
            }
        }

        /// Partitioning an input split into pieces, empty ones included,
        /// gives exactly the output of partitioning it whole: on the
        /// direct path (fewer than 16 parts, or a short input) and on the
        /// SWWC path alike.
        #[test]
        fn prop_pieces_partition_like_their_concatenation(
            keys in prop::collection::vec(any::<u64>(), 0..1500),
            cuts in prop::collection::vec(any::<usize>(), 0..6),
            widths in (0u32..8, 1u32..4, 4u32..8),
        ) {
            let (lo_bit, narrow, wide) = widths;
            let tuples: Vec<Tuple16> =
                keys.iter().enumerate().map(|(i, &k)| Tuple16::new(k, i as u64)).collect();
            // A leading empty piece always; equal cuts add more.
            let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (tuples.len() + 1)).collect();
            bounds.extend([0, 0, tuples.len()]);
            bounds.sort_unstable();
            let pieces: Vec<&[Tuple16]> = bounds.windows(2).map(|w| &tuples[w[0]..w[1]]).collect();
            let mut pt = Partitioner::new();
            for bits in [narrow, wide] {
                let whole = pt.partition(&tuples, lo_bit, bits);
                let split = pt.partition_pieces(&pieces, lo_bit, bits);
                prop_assert_eq!(&split.offsets, &whole.offsets, "bits={}", bits);
                prop_assert_eq!(&split.data, &whole.data, "bits={}", bits);
            }
        }
    }
}
