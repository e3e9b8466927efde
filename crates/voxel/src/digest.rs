//! The workspace's one FNV-1a hasher.
//!
//! Every stable 64-bit digest in the reproduction — baked-grid
//! fingerprints, render-cache camera keys, image digests, serve response
//! digests and the golden files' artifact digests — folds little-endian
//! bytes through [`Fnv64`]. Floats are hashed by their IEEE-754 bit
//! patterns, so a digest match is a bitwise-equality statement, not a
//! tolerance.

/// An incremental 64-bit FNV-1a hasher over little-endian byte streams.
///
/// # Examples
///
/// ```
/// use spnerf_voxel::digest::Fnv64;
/// let mut h = Fnv64::new();
/// h.write_u64(42);
/// let a = h.finish();
/// assert_ne!(a, Fnv64::new().finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Folds raw bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.state ^= *b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Folds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `usize` widened to `u64`, so 32- and 64-bit hosts agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds an `f32` by bit pattern.
    pub fn write_f32(&mut self, v: f32) {
        self.write_u32(v.to_bits());
    }

    /// Folds an `f64` by bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a string's UTF-8 bytes, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn known_fnv_vector() {
        // The published 64-bit FNV-1a test vectors.
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(Fnv64::new().finish(), FNV_OFFSET);
    }
}
