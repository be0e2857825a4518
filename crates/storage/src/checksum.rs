//! CRC-32 (IEEE 802.3) checksums for on-disk artifacts.
//!
//! Every chunk file and every DBMS page carries a CRC so that torn writes
//! and bit rot surface as [`uei_types::UeiError::Corrupt`] instead of
//! silently wrong exploration results.

/// CRC-32 polynomial (reflected IEEE).
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic bytewise table; `TABLES[k][b]` is the CRC contribution of byte
/// `b` followed by `k` zero bytes, which lets the main loop fold eight
/// input bytes per step with eight independent lookups.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Computes the CRC-32 (IEEE) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"hello world");
        let mut data = b"hello world".to_vec();
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    /// The textbook one-byte-at-a-time CRC-32, straight from the
    /// polynomial: the reference the sliced version must reproduce.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn sliced_matches_bytewise_at_any_length_and_alignment() {
        let mut rng = uei_types::Rng::new(0xC3C3);
        let buf: Vec<u8> = (0..4096 + 16).map(|_| rng.next_u64() as u8).collect();
        for _ in 0..400 {
            let offset = rng.below(16) as usize;
            let len = rng.below(4097) as usize;
            let data = &buf[offset..offset + len];
            assert_eq!(crc32(data), crc32_bytewise(data), "len {len} at offset {offset}");
        }
        for len in 0..=64 {
            for offset in 0..8 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "len {len} at offset {offset}");
            }
        }
    }

    #[test]
    fn order_sensitive() {
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }
}
