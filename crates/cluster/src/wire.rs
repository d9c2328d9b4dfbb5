//! The unified wire-tag codec: the 32-bit immediate value attached to
//! every two-sided message by the distributed join and the §7 operators.
//!
//! Layout (one codec for every operator — the superset of what each
//! needs):
//!
//! ```text
//! bits 31..30  kind      (0 = Data, 1 = Histogram, 2 = Eos, 3 = Result)
//! bit  24      relation  (Data only: 0 = R, 1 = S)
//! bits 23..0   partition (Data only)
//! ```
//!
//! All other bits must be zero; [`WireTag::decode`] is fallible and
//! rejects set must-be-zero bits with a [`TagError`] carrying the raw
//! immediate, replacing the two divergent panic paths the join and the
//! operators used to have.

use std::fmt;

/// Inner-relation index.
pub const REL_R: usize = 0;
/// Outer-relation index.
pub const REL_S: usize = 1;

const KIND_SHIFT: u32 = 30;
const KIND_DATA: u32 = 0;
const KIND_HIST: u32 = 1;
const KIND_EOS: u32 = 2;
const KIND_RESULT: u32 = 3;
const REL_SHIFT: u32 = 24;
const PART_MASK: u32 = (1 << REL_SHIFT) - 1;
/// Most partitions a stream can have while every id fits the tag's 24-bit
/// partition field.
pub const MAX_PARTITIONS: usize = 1 << REL_SHIFT;

/// Check, once per stream, that all ids of a `parts`-partition stream fit
/// the tag's partition field: a larger id would alias the relation bit.
pub fn check_partition_count(parts: usize) -> Result<(), TagError> {
    if parts <= MAX_PARTITIONS {
        return Ok(());
    }
    Err(TagError::payload(
        "stream has more partitions than the 24-bit tag field can address",
    ))
}
/// In a Data tag, bits 29..25 sit between the relation bit and the
/// partition id and are never used.
const DATA_UNUSED_MASK: u32 = ((1 << KIND_SHIFT) - 1) & !(1 << REL_SHIFT) & !PART_MASK;

/// Decoded message tag.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum WireTag {
    /// A machine-level histogram (phase-one exchange).
    Histogram,
    /// Partition payload: `rel` ∈ {[`REL_R`], [`REL_S`]}, `part` < 2²⁴.
    Data {
        /// Relation index.
        rel: usize,
        /// Partition id.
        part: usize,
    },
    /// One sender finished streaming to this machine.
    Eos,
    /// Materialized join-result bytes bound for the coordinator (§4.3).
    Result,
}

/// A 32-bit immediate that does not decode to a [`WireTag`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TagError {
    /// The rejected immediate value.
    pub raw: u32,
    reason: &'static str,
}

impl fmt::Display for TagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid wire tag {:#010x}: {}", self.raw, self.reason)
    }
}

impl std::error::Error for TagError {}

impl TagError {
    /// A payload-level decode failure that never had a tag — e.g. a
    /// seqlock-versioned bucket snapshot whose torn-read retries were
    /// exhausted during a one-sided probe (DESIGN.md §11). Carried as a
    /// `TagError` so it surfaces through the same
    /// [`crate::JoinError::Decode`] arm as a malformed immediate.
    pub fn payload(reason: &'static str) -> TagError {
        TagError { raw: 0, reason }
    }

    /// A well-formed tag that the receiving exchange does not expect.
    pub(crate) fn unexpected(raw: u32) -> TagError {
        TagError {
            raw,
            reason: "tag is not part of this exchange's protocol",
        }
    }
}

impl WireTag {
    /// Encode into the 32-bit immediate.
    pub fn encode(self) -> u32 {
        match self {
            WireTag::Histogram => KIND_HIST << KIND_SHIFT,
            WireTag::Eos => KIND_EOS << KIND_SHIFT,
            WireTag::Result => KIND_RESULT << KIND_SHIFT,
            WireTag::Data { rel, part } => {
                debug_assert!(rel == REL_R || rel == REL_S);
                debug_assert!(part < MAX_PARTITIONS);
                (KIND_DATA << KIND_SHIFT) | ((rel as u32) << REL_SHIFT) | part as u32
            }
        }
    }

    /// Decode from the 32-bit immediate, rejecting set must-be-zero bits.
    pub fn decode(raw: u32) -> Result<WireTag, TagError> {
        let payload = raw & !(0b11 << KIND_SHIFT);
        match raw >> KIND_SHIFT {
            KIND_DATA => {
                if raw & DATA_UNUSED_MASK != 0 {
                    Err(TagError {
                        raw,
                        reason: "Data tag has non-zero bits between relation and partition",
                    })
                } else {
                    Ok(WireTag::Data {
                        rel: ((raw >> REL_SHIFT) & 1) as usize,
                        part: (raw & PART_MASK) as usize,
                    })
                }
            }
            kind if payload != 0 => Err(TagError {
                raw,
                reason: match kind {
                    KIND_HIST => "Histogram tag has non-zero payload bits",
                    KIND_EOS => "Eos tag has non-zero payload bits",
                    _ => "Result tag has non-zero payload bits",
                },
            }),
            KIND_HIST => Ok(WireTag::Histogram),
            KIND_EOS => Ok(WireTag::Eos),
            _ => Ok(WireTag::Result),
        }
    }
}

/// The `i`-th of the `n` nearly-equal contiguous ranges that split `len`
/// items: consecutive `i` tile `0..len` exactly.
pub fn range_of(len: usize, n: usize, i: usize) -> std::ops::Range<usize> {
    (i * len / n)..((i + 1) * len / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_kinds() {
        for tag in [
            WireTag::Histogram,
            WireTag::Eos,
            WireTag::Result,
            WireTag::Data {
                rel: REL_R,
                part: 0,
            },
            WireTag::Data {
                rel: REL_S,
                part: (1 << 24) - 1,
            },
        ] {
            assert_eq!(WireTag::decode(tag.encode()), Ok(tag));
        }
    }

    #[test]
    fn partition_count_is_bounded_by_the_24_bit_field() {
        // Ids 0..=2²⁴−1 fit; a stream with one more partition would put id
        // 2²⁴ on the wire, which aliases the relation bit.
        assert_eq!(MAX_PARTITIONS, 1 << 24);
        assert_eq!(check_partition_count(MAX_PARTITIONS), Ok(()));
        assert!(check_partition_count(MAX_PARTITIONS + 1).is_err());
        let aliased = (1u32 << REL_SHIFT) | 5;
        assert_eq!(
            WireTag::decode(aliased),
            Ok(WireTag::Data {
                rel: REL_S,
                part: 5
            })
        );
    }

    #[test]
    fn kind_three_is_result() {
        assert_eq!(WireTag::decode(3 << 30), Ok(WireTag::Result));
    }

    #[test]
    fn rejects_unused_bits_with_raw_value() {
        // Data with a junk bit between relation and partition.
        let raw = 1 << 27;
        let err = WireTag::decode(raw).unwrap_err();
        assert_eq!(err.raw, raw);
        assert!(err.to_string().contains("0x08000000"));
        // Non-data kinds with payload bits.
        for kind in [KIND_HIST, KIND_EOS, KIND_RESULT] {
            let raw = (kind << KIND_SHIFT) | 7;
            let err = WireTag::decode(raw).unwrap_err();
            assert_eq!(err.raw, raw);
        }
    }

    #[test]
    fn ranges_cover_exactly() {
        let rs: Vec<_> = (0..3).map(|i| range_of(10, 3, i)).collect();
        assert_eq!(rs, vec![0..3, 3..6, 6..10]);
        for (len, n) in [(0, 1), (1, 4), (7, 7), (1000, 13)] {
            let mut next = 0;
            for i in 0..n {
                let r = range_of(len, n, i);
                assert_eq!(r.start, next);
                next = r.end;
            }
            assert_eq!(next, len);
        }
    }
}
