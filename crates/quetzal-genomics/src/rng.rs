//! Self-contained, seeded pseudo-random number generators.
//!
//! The workspace has a zero-external-dependency policy (it must build
//! hermetically offline), so dataset generation, property tests and the
//! differential interpreter tests all draw their randomness from the
//! two small, well-studied generators in this module:
//!
//! * [`SplitMix64`] — Steele, Lea & Flood's 64-bit mixer. One word of
//!   state, passes BigCrush, and is the standard seeder for the
//!   xoshiro family. The default generator everywhere in this
//!   workspace.
//! * [`Xoshiro256StarStar`] — Blackman & Vigna's xoshiro256**, for
//!   callers that want a longer period (2^256 − 1) or independent
//!   streams via [`Xoshiro256StarStar::jump`].
//!
//! Both are bit-stable across platforms, which is what makes every
//! generated dataset and every experiment table reproducible.
//!
//! [`Fnv64`] sits beside them: the workspace's one FNV-1a hash, which
//! derives per-dataset seeds from names and checksums ingest
//! checkpoints.

/// Implements the distribution helpers shared by both generators in
/// terms of an inherent `next_u64`.
macro_rules! impl_rng_helpers {
    ($ty:ty) => {
        impl $ty {
            /// Uniform integer in `[0, bound)` (unbiased by rejection).
            ///
            /// # Panics
            ///
            /// Panics if `bound == 0`.
            pub fn below(&mut self, bound: u64) -> u64 {
                assert!(bound > 0, "bound must be positive");
                let zone = u64::MAX - (u64::MAX % bound);
                loop {
                    let v = self.next_u64();
                    if v < zone {
                        return v % bound;
                    }
                }
            }

            /// Uniform float in `[0, 1)`.
            pub fn f64(&mut self) -> f64 {
                (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
            }

            /// Uniform integer in `[lo, hi)` as `i64`.
            ///
            /// # Panics
            ///
            /// Panics if `lo >= hi`.
            pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
                assert!(lo < hi, "empty range");
                lo.wrapping_add(self.below(hi.wrapping_sub(lo) as u64) as i64)
            }

            /// A uniformly chosen element of a non-empty slice.
            ///
            /// # Panics
            ///
            /// Panics if `items` is empty.
            pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
                &items[self.below(items.len() as u64) as usize]
            }

            /// `true` with probability `p` (clamped to `[0, 1]`).
            pub fn chance(&mut self, p: f64) -> bool {
                self.f64() < p
            }
        }
    };
}

/// A tiny, high-quality, self-contained PRNG (SplitMix64): one `u64` of
/// state, an additive Weyl sequence through a 64-bit finalising mixer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl_rng_helpers!(SplitMix64);

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Incremental FNV-1a hasher — the workspace's zero-dependency content
/// checksum (collision resistance is not a goal; torn-write and
/// bit-flip *detection* is).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// Fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64::default()
    }

    /// Absorbs bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest so far.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.digest()
}

/// Blackman & Vigna's xoshiro256**: four `u64` of state, period
/// 2^256 − 1, with a `jump` function for 2^128 non-overlapping
/// subsequences. Seeded through [`SplitMix64`], as its authors
/// prescribe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator from a seed (expanded via [`SplitMix64`]).
    pub fn new(seed: u64) -> Xoshiro256StarStar {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256StarStar {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Advances the state by 2^128 steps: calling `jump` `n` times on
    /// clones of one seed yields `n` non-overlapping streams (one per
    /// worker shard, for example).
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180E_C6D3_3CFD_0ABA,
            0xD5A6_1266_F0C9_392C,
            0xA958_2618_E03F_C9AA,
            0x39AB_DC45_29B1_661C,
        ];
        let mut acc = [0u64; 4];
        for j in JUMP {
            for b in 0..64 {
                if (j >> b) & 1 != 0 {
                    for (a, s) in acc.iter_mut().zip(self.s) {
                        *a ^= s;
                    }
                }
                self.next_u64();
            }
        }
        self.s = acc;
    }
}

impl_rng_helpers!(Xoshiro256StarStar);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 0 and seed 1234567, from the public
        // reference implementation (Vigna, splitmix64.c).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn xoshiro_is_deterministic_and_differs_from_splitmix() {
        let mut a = Xoshiro256StarStar::new(42);
        let mut b = Xoshiro256StarStar::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut sm = SplitMix64::new(42);
        assert!(xs.iter().any(|&x| x != sm.next_u64()));
    }

    #[test]
    fn xoshiro_jump_decorrelates_streams() {
        let mut a = Xoshiro256StarStar::new(7);
        let mut b = a.clone();
        b.jump();
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn below_is_in_range_for_both() {
        let mut s = SplitMix64::new(99);
        let mut x = Xoshiro256StarStar::new(99);
        for _ in 0..1000 {
            assert!(s.below(7) < 7);
            assert!(x.below(7) < 7);
        }
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut r = SplitMix64::new(1);
        for _ in 0..1000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn i64_in_and_pick_cover_their_domains() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = r.i64_in(-2, 3);
            assert!((-2..3).contains(&v));
            seen[(v + 2) as usize] = true;
            let p = *r.pick(&[10, 20, 30]);
            assert!([10, 20, 30].contains(&p));
        }
        assert!(seen.iter().all(|&s| s), "all values of [-2,3) reached");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_bound_panics() {
        SplitMix64::new(0).below(0);
    }

    #[test]
    fn fnv64_reference_vectors() {
        // Published FNV-1a 64-bit test vectors (Fowler/Noll/Vo).
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.digest(), fnv64(b"foobar"), "incremental == one-shot");
    }
}
