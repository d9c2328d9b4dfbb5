//! Tuple layouts used throughout the evaluation (§6.1.1, §6.7).
//!
//! The paper's primary workload is a narrow `<key, rid>` pair of 16 bytes
//! (column-store setting); §6.7 additionally evaluates 32- and 64-byte
//! tuples (row-store setting) and finds execution time depends only on the
//! total byte volume. All three layouts implement [`Tuple`], and the join
//! is generic over it.

/// A fixed-width join tuple: an 8-byte key, an 8-byte record id, and an
/// optional opaque payload.
///
/// Tuples cross the (simulated) wire in a defined little-endian layout via
/// [`Tuple::write_to`]/[`Tuple::read_from`]; `SIZE` is that wire width.
pub trait Tuple: Copy + Send + Sync + 'static {
    /// Serialized width in bytes.
    const SIZE: usize;

    /// Construct a tuple with the given key and record id (payload bytes,
    /// if any, are derived deterministically so corruption is detectable).
    fn new(key: u64, rid: u64) -> Self;

    /// The join attribute.
    fn key(&self) -> u64;

    /// The record identifier.
    fn rid(&self) -> u64;

    /// Write the wire representation into the first `SIZE` bytes of
    /// `out`, in place: a sender writes straight into its send buffer.
    ///
    /// # Panics
    /// Panics if `out` is shorter than `SIZE`.
    fn write_to(&self, out: &mut [u8]);

    /// Decode one tuple from the first `SIZE` bytes of `bytes`.
    fn read_from(bytes: &[u8]) -> Self;
}

macro_rules! impl_tuple {
    ($name:ident, $size:expr, $pad:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Copy, Clone, PartialEq, Eq, Debug)]
        pub struct $name {
            /// Join key.
            pub key: u64,
            /// Record id.
            pub rid: u64,
            pad: [u8; $pad],
        }

        impl Tuple for $name {
            const SIZE: usize = $size;

            #[inline]
            fn new(key: u64, rid: u64) -> Self {
                let mut pad = [0u8; $pad];
                // Deterministic payload so that transport bugs that shear
                // payload from header are caught by tests.
                for (i, b) in pad.iter_mut().enumerate() {
                    *b = (key as u8).wrapping_add(i as u8);
                }
                $name { key, rid, pad }
            }

            #[inline]
            fn key(&self) -> u64 {
                self.key
            }

            #[inline]
            fn rid(&self) -> u64 {
                self.rid
            }

            #[inline]
            fn write_to(&self, out: &mut [u8]) {
                out[0..8].copy_from_slice(&self.key.to_le_bytes());
                out[8..16].copy_from_slice(&self.rid.to_le_bytes());
                out[16..$size].copy_from_slice(&self.pad);
            }

            #[inline]
            fn read_from(bytes: &[u8]) -> Self {
                let key = u64::from_le_bytes(bytes[0..8].try_into().expect("an 8-byte slice"));
                let rid = u64::from_le_bytes(bytes[8..16].try_into().expect("an 8-byte slice"));
                let mut pad = [0u8; $pad];
                pad.copy_from_slice(&bytes[16..$size]);
                $name { key, rid, pad }
            }
        }
    };
}

impl_tuple!(
    Tuple16,
    16,
    0,
    "The paper's narrow 16-byte `<key, rid>` tuple (column-store workload)."
);
impl_tuple!(
    Tuple32,
    32,
    16,
    "A 32-byte tuple with a 16-byte payload (§6.7)."
);
impl_tuple!(
    Tuple64,
    64,
    48,
    "A 64-byte tuple with a 48-byte payload (§6.7)."
);

/// Decode a byte buffer containing a whole number of serialized tuples.
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of `T::SIZE` — a framing bug.
pub fn decode_all<T: Tuple>(bytes: &[u8]) -> Vec<T> {
    assert_eq!(
        bytes.len() % T::SIZE,
        0,
        "buffer of {} bytes is not a whole number of {}-byte tuples",
        bytes.len(),
        T::SIZE
    );
    bytes.chunks_exact(T::SIZE).map(T::read_from).collect()
}

/// Append decoded tuples from `bytes` onto `out` (no intermediate vec).
pub fn decode_into<T: Tuple>(bytes: &[u8], out: &mut Vec<T>) {
    assert_eq!(bytes.len() % T::SIZE, 0, "partial tuple in buffer");
    out.reserve(bytes.len() / T::SIZE);
    out.extend(bytes.chunks_exact(T::SIZE).map(T::read_from));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Tuple + PartialEq + std::fmt::Debug>() {
        let mut buf = vec![0; 100 * T::SIZE];
        let tuples: Vec<T> = (0..100).map(|i| T::new(i * 37 + 1, i)).collect();
        for (t, out) in tuples.iter().zip(buf.chunks_exact_mut(T::SIZE)) {
            t.write_to(out);
        }
        let back: Vec<T> = decode_all(&buf);
        assert_eq!(back, tuples);
    }

    #[test]
    fn wire_roundtrip_all_widths() {
        roundtrip::<Tuple16>();
        roundtrip::<Tuple32>();
        roundtrip::<Tuple64>();
    }

    #[test]
    fn sizes_match_paper() {
        assert_eq!(Tuple16::SIZE, 16);
        assert_eq!(Tuple32::SIZE, 32);
        assert_eq!(Tuple64::SIZE, 64);
        assert_eq!(std::mem::size_of::<Tuple16>(), 16);
    }

    #[test]
    #[should_panic(expected = "partial tuple")]
    fn partial_tuple_is_a_framing_bug() {
        let mut out: Vec<Tuple16> = Vec::new();
        decode_into(&[0u8; 17], &mut out);
    }

    #[test]
    fn decode_into_appends() {
        let mut buf = [0; 16];
        Tuple16::new(1, 2).write_to(&mut buf);
        let mut out = vec![Tuple16::new(9, 9)];
        decode_into(&buf, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].key(), 1);
    }
}
