//! LEB128 variable-length integers and zigzag encoding.
//!
//! The substrate for the checkpoint encodings: arrival ordinals,
//! dimension ids and counts are small and/or slowly increasing, so
//! delta + varint encoding shrinks them from fixed 4–8 bytes to
//! typically 1–2. Unsigned values use plain LEB128 (7 payload bits per
//! byte, high bit = continuation); signed deltas are zigzag-mapped first
//! so small negative values stay short.
//!
//! Decoding is hardened for untrusted input: continuation chains longer
//! than 10 bytes and non-canonical final bytes that overflow 64 bits are
//! rejected rather than wrapped.

/// Maximum encoded length of a `u64` (⌈64/7⌉ bytes).
pub const MAX_VARINT_LEN: usize = 10;

/// Appends `value` as LEB128 to `out`; returns the encoded length.
pub fn write_u64(value: u64, out: &mut Vec<u8>) -> usize {
    let mut v = value;
    let mut n = 0;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        n += 1;
        if v == 0 {
            out.push(byte);
            return n;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `value` zigzag-encoded (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`).
pub fn write_i64(value: i64, out: &mut Vec<u8>) -> usize {
    write_u64(zigzag(value), out)
}

/// The zigzag map: small magnitudes (of either sign) become small
/// unsigned values.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The inverse zigzag map.
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Decode errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VarintError {
    /// The input ended inside an encoded value.
    UnexpectedEof,
    /// More than [`MAX_VARINT_LEN`] continuation bytes, or the final byte
    /// carries bits beyond the 64th.
    Overflow,
}

impl std::fmt::Display for VarintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            VarintError::UnexpectedEof => "input ended inside a varint",
            VarintError::Overflow => "varint exceeds 64 bits",
        })
    }
}

impl std::error::Error for VarintError {}

/// Reads a LEB128 `u64` from the front of `input`; returns the value and
/// the number of bytes consumed.
pub fn read_u64(input: &[u8]) -> Result<(u64, usize), VarintError> {
    let mut value: u64 = 0;
    for (i, &byte) in input.iter().enumerate().take(MAX_VARINT_LEN) {
        let payload = (byte & 0x7F) as u64;
        if i == MAX_VARINT_LEN - 1 && payload > 1 {
            // The 10th byte may only contribute the 64th bit.
            return Err(VarintError::Overflow);
        }
        value |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
    }
    if input.len() < MAX_VARINT_LEN {
        Err(VarintError::UnexpectedEof)
    } else {
        Err(VarintError::Overflow)
    }
}

/// Reads a zigzag-encoded `i64` from the front of `input`.
pub fn read_i64(input: &[u8]) -> Result<(i64, usize), VarintError> {
    let (v, n) = read_u64(input)?;
    Ok((unzigzag(v), n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_encodings() {
        let mut out = Vec::new();
        assert_eq!(write_u64(0, &mut out), 1);
        assert_eq!(out, [0x00]);
        out.clear();
        assert_eq!(write_u64(127, &mut out), 1);
        assert_eq!(out, [0x7F]);
        out.clear();
        assert_eq!(write_u64(128, &mut out), 2);
        assert_eq!(out, [0x80, 0x01]);
        out.clear();
        assert_eq!(write_u64(u64::MAX, &mut out), MAX_VARINT_LEN);
    }

    #[test]
    fn zigzag_known_values() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(zigzag(i64::MIN), u64::MAX);
        assert_eq!(unzigzag(u64::MAX), i64::MIN);
    }

    #[test]
    fn eof_detected() {
        let mut out = Vec::new();
        write_u64(1 << 40, &mut out);
        for cut in 0..out.len() {
            assert_eq!(read_u64(&out[..cut]), Err(VarintError::UnexpectedEof));
        }
    }

    #[test]
    fn overflow_detected() {
        // Eleven continuation bytes.
        let long = [0x80u8; 11];
        assert_eq!(read_u64(&long), Err(VarintError::Overflow));
        // Ten bytes whose last carries more than the 64th bit.
        let mut too_big = [0x80u8; 10];
        too_big[9] = 0x02;
        assert_eq!(read_u64(&too_big), Err(VarintError::Overflow));
        // The canonical u64::MAX encoding still decodes.
        let mut max = Vec::new();
        write_u64(u64::MAX, &mut max);
        assert_eq!(read_u64(&max), Ok((u64::MAX, MAX_VARINT_LEN)));
    }

    #[test]
    fn trailing_bytes_are_not_consumed() {
        let mut out = Vec::new();
        write_u64(300, &mut out);
        out.extend_from_slice(&[0xAA, 0xBB]);
        let (v, n) = read_u64(&out).unwrap();
        assert_eq!(v, 300);
        assert_eq!(n, 2);
    }

    proptest! {
        #[test]
        fn u64_roundtrips(v in proptest::num::u64::ANY) {
            let mut out = Vec::new();
            let n = write_u64(v, &mut out);
            prop_assert_eq!(n, out.len());
            prop_assert!(n <= MAX_VARINT_LEN);
            let (decoded, consumed) = read_u64(&out).unwrap();
            prop_assert_eq!(decoded, v);
            prop_assert_eq!(consumed, n);
        }

        #[test]
        fn i64_roundtrips(v in proptest::num::i64::ANY) {
            let mut out = Vec::new();
            write_i64(v, &mut out);
            let (decoded, _) = read_i64(&out).unwrap();
            prop_assert_eq!(decoded, v);
        }

        #[test]
        fn small_values_encode_short(v in 0u64..128) {
            let mut out = Vec::new();
            prop_assert_eq!(write_u64(v, &mut out), 1);
        }

        #[test]
        fn zigzag_is_a_bijection(v in proptest::num::i64::ANY) {
            prop_assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
