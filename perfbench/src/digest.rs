//! FNV-1a 64-bit digests of outcomes.

/// An FNV-1a 64-bit hasher.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// The empty digest.
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Folds in `data`, then a separator so adjacent fields cannot run
    /// together.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data.iter().chain(&[0xFF]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Folds in each value, little-endian.
    pub fn u64s(&mut self, values: &[u64]) {
        for v in values {
            self.bytes(&v.to_le_bytes());
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
