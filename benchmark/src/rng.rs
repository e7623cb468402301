//! The benchmark's own seeded generator. It lives here, not in a shared
//! crate, so that a change to the repository's random-number code can never
//! change the job stream the benchmark sends to the program.

/// SplitMix64: small, fast, and fully determined by its 64-bit state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed`; equal pairs give equal
    /// sequences, and any difference in either gives an unrelated one.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ 0x9E37_79B9_7F4A_7C15);
        r.0 = r.next_u64() ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// FNV-1a over a byte stream: the result digest a speed-only change must
/// leave unchanged.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        // Separator, so that "ab"+"c" and "a"+"bc" differ.
        self.0 = (self.0 ^ 0xFF).wrapping_mul(0x0100_0000_01B3);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}
