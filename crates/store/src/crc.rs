//! CRC-32 (ISO-HDLC / "zlib" polynomial 0xEDB88320), slicing-by-8.
//!
//! Every checksum the system writes or checks is this one function:
//! WAL records ([`crate::log`]), snapshot bodies ([`crate::snapshot`]),
//! the catalog manifest ([`crate::catalog`]), partition-file records
//! ([`crate::partfile`]) and the server's wire
//! frames. Torn writes and bit rot are detected at recovery (or at frame
//! decode) instead of silently corrupting the learned model.
//!
//! Slicing-by-8 folds eight input bytes per step through eight 256-entry
//! tables: table 0 is the byte-at-a-time table, and entry `i` of table
//! `k` is the CRC register after feeding byte `i` followed by `k` zero
//! bytes. One step XORs the register into the next eight bytes (read
//! little-endian) and looks each byte up in the table for its distance
//! from the end of the step; the tail shorter than eight bytes goes
//! through table 0 a byte at a time. The values are the byte-wise
//! loop's (the test module keeps that loop as the oracle).

/// The eight lookup tables, built at compile time.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
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

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::{crc32, TABLES};

    /// The byte-at-a-time loop the sliced form must equal.
    fn bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Every length 0..=300 at every start offset 0..8 (so each residue of
    /// the 8-byte step and each alignment of the slice is covered), then
    /// one 1 MiB buffer.
    #[test]
    fn sliced_equals_bytewise_at_every_length_and_offset() {
        let buf = noise(300 + 8, 0x9E37_79B9_7F4A_7C15);
        for offset in 0..8 {
            for len in 0..=300 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), bytewise(data), "offset {offset} len {len}");
            }
        }
        let big = noise(1 << 20, 7);
        assert_eq!(crc32(&big), bytewise(&big));
    }

    #[test]
    fn sensitive_to_any_flip() {
        let base = crc32(b"verdict snippet record");
        let mut data = b"verdict snippet record".to_vec();
        for i in 0..data.len() {
            data[i] ^= 0x01;
            assert_ne!(crc32(&data), base, "flip at byte {i} undetected");
            data[i] ^= 0x01;
        }
    }
}
