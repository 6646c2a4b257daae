//! Shard wire format v1: layout constants, checksum, and the
//! bounds-checked primitives the reader decodes with.
//!
//! A shard file is little-endian throughout:
//!
//! ```text
//! offset  field
//! 0       magic           b"ECHOSHD1"
//! 8       version         u32  (= 1)
//! 12      dim             u32  feature dimensionality
//! 16      n_users         u32  user records in this shard
//! 20      n_cells         u32  coarse-index cells
//! 24      scaler_off      u64  → f64 means[dim] ++ f64 stds[dim]
//! 32      ids_off         u64  → u64 ids[n_users], strictly ascending
//! 40      centroids_off   u64  → f32 centroids[n_users × dim]
//! 48      cell_cent_off   u64  → f32 cell_centroids[n_cells × dim]
//! 56      cell_offs_off   u64  → u32 cell_offsets[n_cells + 1] (CSR)
//! 64      members_off     u64  → u32 members[n_users] (CSR payload)
//! 72      rec_tab_off     u64  → u64 record_offsets[n_users + 1]
//! 80      gates_off       u64  → per-user gate records (see below)
//! 88      file_len        u64  total file length including trailer
//! 96      … sections, each 8-byte aligned …
//! file_len-8  checksum    u64  FNV-1a over bytes[0 .. file_len-8]
//! ```
//!
//! Each user's gate record (at `record_offsets[i]`, ending exactly at
//! `record_offsets[i + 1]`):
//!
//! ```text
//! u32 n_gates, u32 pad(0)
//! per gate: u32 n_sv, u32 pad(0),
//!           f64 gamma, f64 rho, f64 threshold,
//!           f64 coefficients[n_sv], f64 support[n_sv × dim]
//! ```
//!
//! The writer starts every section and record on a multiple of 8. The
//! reader does not depend on it: [`Cursor`] decodes each value with
//! `from_le_bytes`, checks every read against the end of the image,
//! and returns typed [`StoreError`]s with the offending byte offset.

use super::StoreError;

/// File magic — "ECHO SHarD v1".
pub const MAGIC: [u8; 8] = *b"ECHOSHD1";
/// The format version this build reads and writes.
pub const VERSION: u32 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 96;
/// Trailer (checksum) length in bytes.
pub const TRAILER_LEN: usize = 8;
/// Smallest possible well-formed shard (empty sections still need a
/// header, a one-entry record table and a checksum).
pub const MIN_FILE_LEN: usize = HEADER_LEN + 8 + TRAILER_LEN;

/// The parsed fixed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Feature dimensionality.
    pub dim: u32,
    /// User records in this shard.
    pub n_users: u32,
    /// Coarse-index cells.
    pub n_cells: u32,
    /// Byte offset of the scaler section.
    pub scaler_off: u64,
    /// Byte offset of the sorted user-id section.
    pub ids_off: u64,
    /// Byte offset of the quantized centroid section.
    pub centroids_off: u64,
    /// Byte offset of the coarse-index cell centroids.
    pub cell_cent_off: u64,
    /// Byte offset of the coarse-index CSR offsets.
    pub cell_offs_off: u64,
    /// Byte offset of the coarse-index CSR members.
    pub members_off: u64,
    /// Byte offset of the per-user record table.
    pub rec_tab_off: u64,
    /// Byte offset of the gate records.
    pub gates_off: u64,
    /// Total file length the header promises.
    pub file_len: u64,
}

/// The checksum: FNV-1a 64-bit — cheap, and plenty to catch torn
/// writes and bit rot (this is an integrity check, not an authenticity
/// one).
pub use echo_obs::fnv1a64;

/// Parses and validates the fixed header and trailer of a shard image:
/// magic, version, promised length vs actual, and the body checksum.
///
/// # Errors
///
/// [`StoreError::Truncated`], [`StoreError::BadMagic`],
/// [`StoreError::BadVersion`], [`StoreError::Corrupt`] (length
/// mismatch) or [`StoreError::ChecksumMismatch`].
pub fn parse_header(bytes: &[u8]) -> Result<Header, StoreError> {
    if bytes.len() < MIN_FILE_LEN {
        return Err(StoreError::Truncated {
            offset: 0,
            needed: MIN_FILE_LEN as u64,
            file_len: bytes.len() as u64,
            what: "shard header",
        });
    }
    if bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic { offset: 0 });
    }
    let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
    let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
    let version = u32_at(8);
    if version != VERSION {
        return Err(StoreError::BadVersion {
            offset: 8,
            found: version,
            supported: VERSION,
        });
    }
    let header = Header {
        dim: u32_at(12),
        n_users: u32_at(16),
        n_cells: u32_at(20),
        scaler_off: u64_at(24),
        ids_off: u64_at(32),
        centroids_off: u64_at(40),
        cell_cent_off: u64_at(48),
        cell_offs_off: u64_at(56),
        members_off: u64_at(64),
        rec_tab_off: u64_at(72),
        gates_off: u64_at(80),
        file_len: u64_at(88),
    };
    if header.file_len != bytes.len() as u64 {
        if header.file_len > bytes.len() as u64 {
            return Err(StoreError::Truncated {
                offset: bytes.len() as u64,
                needed: header.file_len - bytes.len() as u64,
                file_len: bytes.len() as u64,
                what: "shard body (header promises a longer file)",
            });
        }
        return Err(StoreError::Corrupt {
            offset: 88,
            what: "header file_len shorter than the actual file",
        });
    }
    if header.dim == 0 {
        return Err(StoreError::Corrupt {
            offset: 12,
            what: "zero feature dimensionality",
        });
    }
    let body = &bytes[..bytes.len() - TRAILER_LEN];
    let expected = fnv1a64(body);
    let found = u64::from_le_bytes(bytes[bytes.len() - TRAILER_LEN..].try_into().unwrap());
    if expected != found {
        return Err(StoreError::ChecksumMismatch { expected, found });
    }
    Ok(header)
}

/// A decoding cursor over a shard image — every read is bounds-checked
/// and decodes via `from_le_bytes`, so it works on any endianness.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor positioned at `off`.
    pub fn at(bytes: &'a [u8], off: usize) -> Self {
        Cursor { bytes, pos: off }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The bytes of the next `n` elements of `size` bytes each. Neither
    /// a count nor an offset the file states can wrap the arithmetic or
    /// index past the image: both are typed errors.
    fn take(&mut self, n: usize, size: usize, what: &'static str) -> Result<&'a [u8], StoreError> {
        let len = n.checked_mul(size).ok_or(StoreError::Corrupt {
            offset: self.pos as u64,
            what: "section length overflows",
        })?;
        if self.pos > self.bytes.len() || len > self.bytes.len() - self.pos {
            return Err(StoreError::Truncated {
                offset: self.pos as u64,
                needed: len as u64,
                file_len: self.bytes.len() as u64,
                what,
            });
        }
        let s = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Reads one `u32`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at the cursor position.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(
            self.take(1, 4, what)?.try_into().unwrap(),
        ))
    }

    /// Reads one `u64`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at the cursor position.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(
            self.take(1, 8, what)?.try_into().unwrap(),
        ))
    }

    /// Reads `n` consecutive `f64`s into a vector.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at the cursor position, or
    /// [`StoreError::Corrupt`] when `n` elements overflow a byte count.
    pub fn f64s(&mut self, n: usize, what: &'static str) -> Result<Vec<f64>, StoreError> {
        let raw = self.take(n, 8, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads `n` consecutive `f32`s into a vector.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at the cursor position, or
    /// [`StoreError::Corrupt`] when `n` elements overflow a byte count.
    pub fn f32s(&mut self, n: usize, what: &'static str) -> Result<Vec<f32>, StoreError> {
        let raw = self.take(n, 4, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads `n` consecutive `u64`s into a vector.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at the cursor position, or
    /// [`StoreError::Corrupt`] when `n` elements overflow a byte count.
    pub fn u64s(&mut self, n: usize, what: &'static str) -> Result<Vec<u64>, StoreError> {
        let raw = self.take(n, 8, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads `n` consecutive `u32`s into a vector.
    ///
    /// # Errors
    ///
    /// [`StoreError::Truncated`] at the cursor position, or
    /// [`StoreError::Corrupt`] when `n` elements overflow a byte count.
    pub fn u32s(&mut self, n: usize, what: &'static str) -> Result<Vec<u32>, StoreError> {
        let raw = self.take(n, 4, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

/// An append-only little-endian buffer that tracks 8-byte section
/// alignment — the writer half of the format.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Bytes written so far (the next append offset).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends one `f32`.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Zero-pads to the next 8-byte boundary and returns the aligned
    /// offset — called before every section.
    pub fn align8(&mut self) -> usize {
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
        self.buf.len()
    }

    /// Patches a previously written `u64` in place (header back-fill).
    ///
    /// # Panics
    ///
    /// Panics if `off + 8` exceeds the buffer.
    pub fn patch_u64(&mut self, off: usize, v: u64) {
        self.buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Consumes the writer, appending the FNV-1a trailer over everything
    /// written so far.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_aligns_and_patches() {
        let mut w = Writer::new();
        w.put_u32(7);
        assert_eq!(w.align8(), 8);
        w.put_u64(0);
        w.patch_u64(8, 42);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 16 + 8);
        assert_eq!(u64::from_le_bytes(bytes[8..16].try_into().unwrap()), 42);
        let sum = u64::from_le_bytes(bytes[16..].try_into().unwrap());
        assert_eq!(sum, fnv1a64(&bytes[..16]));
    }

    #[test]
    fn cursor_reports_truncation_with_offset() {
        let bytes = [1u8, 2, 3];
        let mut c = Cursor::at(&bytes, 0);
        let err = c.u64("test field").unwrap_err();
        assert_eq!(
            err,
            StoreError::Truncated {
                offset: 0,
                needed: 8,
                file_len: 3,
                what: "test field",
            }
        );
    }

    #[test]
    fn cursor_types_offsets_past_the_end_and_overflowing_counts() {
        let bytes = [0u8; 16];
        // Even an empty read at an offset past the image is truncated.
        assert!(matches!(
            Cursor::at(&bytes, 17).u64s(0, "x"),
            Err(StoreError::Truncated { offset: 17, .. })
        ));
        assert_eq!(Cursor::at(&bytes, 16).u64s(0, "x"), Ok(Vec::new()));
        assert!(matches!(
            Cursor::at(&bytes, 0).f64s(usize::MAX / 4, "x"),
            Err(StoreError::Corrupt { offset: 0, .. })
        ));
    }

    #[test]
    fn parse_header_rejects_garbage() {
        assert!(matches!(
            parse_header(&[0u8; 10]).unwrap_err(),
            StoreError::Truncated { .. }
        ));
        let mut junk = vec![0u8; MIN_FILE_LEN];
        junk[..8].copy_from_slice(b"NOTSHARD");
        assert_eq!(
            parse_header(&junk).unwrap_err(),
            StoreError::BadMagic { offset: 0 }
        );
    }
}
