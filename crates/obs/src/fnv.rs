//! FNV-1a, 64-bit: the workspace's one non-cryptographic hash, for span
//! ids, window fingerprints, run digests and the store's integrity
//! checksum. Stable across platforms and releases, unlike
//! `DefaultHasher`, whose algorithm is unspecified.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a hasher: [`Fnv1a::write`] calls in sequence hash
/// exactly as one [`fnv1a64`] over their concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A hasher at the offset basis (the hash of no bytes).
    pub const fn new() -> Self {
        Fnv1a(OFFSET_BASIS)
    }

    /// Hashes `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Hashes `v` as its 8 little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_writes_hash_as_their_concatenation() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write_u64(u64::from_le_bytes(*b"bar\0\0\0\0\0"));
        assert_eq!(h.finish(), fnv1a64(b"foobar\0\0\0\0\0"));
    }
}
