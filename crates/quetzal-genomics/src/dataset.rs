//! Deterministic read-pair dataset generators (paper Table II).
//!
//! The paper evaluates four DNA datasets — two short-read sets (100 bp,
//! 250 bp, Illumina-like, from the SneakySnake repository) and two
//! simulated long-read sets (10 Kbp, 30 Kbp, PacBio-HiFi-like) — plus the
//! BAliBASE4 protein collection. We do not have the original files, so
//! this module generates pairs with the same length and error profiles,
//! using a self-contained, seeded PRNG so every experiment is exactly
//! reproducible. Real data can be substituted through [`crate::fasta`].

use crate::alphabet::Alphabet;
use crate::rng::fnv64;
use crate::sequence::Seq;

// Re-exported for compatibility: the PRNG grew into its own module when
// the workspace went zero-external-dependency.
pub use crate::rng::SplitMix64;

/// A pattern/text pair to be aligned or filtered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqPair {
    /// The read (query).
    pub pattern: Seq,
    /// The reference segment (target).
    pub text: Seq,
}

/// Relative frequency of each edit type introduced when mutating the
/// text from the pattern. The three fields are weights, not absolute
/// rates; they are normalised internally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorProfile {
    /// Weight of substitutions.
    pub mismatch: f64,
    /// Weight of insertions.
    pub insertion: f64,
    /// Weight of deletions.
    pub deletion: f64,
}

impl ErrorProfile {
    /// Substitution-dominated profile typical of Illumina short reads.
    pub const ILLUMINA: ErrorProfile = ErrorProfile {
        mismatch: 0.8,
        insertion: 0.1,
        deletion: 0.1,
    };

    /// Indel-heavier profile typical of PacBio HiFi long reads.
    pub const HIFI: ErrorProfile = ErrorProfile {
        mismatch: 0.4,
        insertion: 0.3,
        deletion: 0.3,
    };

    /// Uniform profile (used for protein pairs).
    pub const UNIFORM: ErrorProfile = ErrorProfile {
        mismatch: 1.0 / 3.0,
        insertion: 1.0 / 3.0,
        deletion: 1.0 / 3.0,
    };
}

/// Specification of a generated dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Human-readable name used in experiment output (e.g. `100bp_1`).
    pub name: &'static str,
    /// Read (pattern) length in symbols.
    pub read_len: usize,
    /// Number of pairs.
    pub pairs: usize,
    /// Expected fraction of edited positions (e.g. `0.05` = 5 % edits).
    pub edit_rate: f64,
    /// Distribution of edit types.
    pub profile: ErrorProfile,
    /// Sequence alphabet.
    pub alphabet: Alphabet,
}

impl DatasetSpec {
    /// Illumina iSeq100-like short reads (paper dataset `100bp_1`).
    pub fn d100() -> DatasetSpec {
        DatasetSpec {
            name: "100bp_1",
            read_len: 100,
            pairs: 1000,
            edit_rate: 0.04,
            profile: ErrorProfile::ILLUMINA,
            alphabet: Alphabet::Dna,
        }
    }

    /// Illumina NGS-like short reads (paper dataset `250bp_1`).
    pub fn d250() -> DatasetSpec {
        DatasetSpec {
            name: "250bp_1",
            read_len: 250,
            pairs: 1000,
            edit_rate: 0.04,
            profile: ErrorProfile::ILLUMINA,
            alphabet: Alphabet::Dna,
        }
    }

    /// Simulated long reads (paper dataset `10Kbp`), HiFi-like ~2 %
    /// error (the paper generates long datasets following the
    /// SneakySnake methodology at HiFi-representative accuracy).
    pub fn d10k() -> DatasetSpec {
        DatasetSpec {
            name: "10Kbp",
            read_len: 10_000,
            pairs: 100,
            edit_rate: 0.02,
            profile: ErrorProfile::HIFI,
            alphabet: Alphabet::Dna,
        }
    }

    /// Simulated long reads (paper dataset `30Kbp`), same methodology
    /// as [`DatasetSpec::d10k`].
    pub fn d30k() -> DatasetSpec {
        DatasetSpec {
            name: "30Kbp",
            read_len: 30_000,
            pairs: 30,
            edit_rate: 0.02,
            profile: ErrorProfile::HIFI,
            alphabet: Alphabet::Dna,
        }
    }

    /// PacBio-HiFi-like long reads (~1 % error): not one of the paper's
    /// four Table II sets, but representative of the HiFi technology the
    /// paper cites; used by supplementary experiments.
    pub fn d10k_hifi() -> DatasetSpec {
        DatasetSpec {
            name: "10Kbp_hifi",
            read_len: 10_000,
            pairs: 100,
            edit_rate: 0.01,
            profile: ErrorProfile::HIFI,
            alphabet: Alphabet::Dna,
        }
    }

    /// BAliBASE4-like protein pairs: the larger alphabet and higher
    /// divergence than DNA sets reproduce the paper's observation
    /// (§VII-A.4) that protein alignment needs more edits and therefore
    /// more accelerated iterations.
    pub fn protein() -> DatasetSpec {
        DatasetSpec {
            name: "protein",
            read_len: 400,
            pairs: 200,
            edit_rate: 0.10,
            profile: ErrorProfile::UNIFORM,
            alphabet: Alphabet::Protein,
        }
    }

    /// The four DNA datasets of Table II, short to long.
    pub fn table2() -> Vec<DatasetSpec> {
        vec![
            DatasetSpec::d100(),
            DatasetSpec::d250(),
            DatasetSpec::d10k(),
            DatasetSpec::d30k(),
        ]
    }

    /// Whether the read length classifies as a long read (≥ 1 Kbp) in the
    /// paper's short/long split.
    pub fn is_long(&self) -> bool {
        self.read_len >= 1000
    }

    /// Generates the dataset deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> Vec<SeqPair> {
        self.generate_n(seed, self.pairs)
    }

    /// Generates `n` pairs (overriding `self.pairs`), deterministically
    /// from `seed`. Experiments use this to scale workload size.
    pub fn generate_n(&self, seed: u64, n: usize) -> Vec<SeqPair> {
        self.pair_stream(seed).take(n).collect()
    }

    /// An unbounded streaming generator of this dataset's pairs: the
    /// same PRNG sequence as [`DatasetSpec::generate_n`] (the first `n`
    /// pairs are identical), but holding one pair in memory at a time —
    /// `qzingest stage` writes genome-scale pair files from this
    /// without materialising them.
    pub fn pair_stream(&self, seed: u64) -> impl Iterator<Item = SeqPair> + '_ {
        let mut rng = SplitMix64::new(seed ^ fnv64(self.name.as_bytes()));
        std::iter::from_fn(move || {
            let pattern = random_seq(&mut rng, self.read_len, self.alphabet);
            let text = mutate(&mut rng, &pattern, self.edit_rate, self.profile);
            Some(SeqPair { pattern, text })
        })
    }
}

/// Generates a uniformly random sequence of `len` symbols.
pub fn random_seq(rng: &mut SplitMix64, len: usize, alphabet: Alphabet) -> Seq {
    let symbols = alphabet.symbols();
    let bytes: Vec<u8> = (0..len)
        .map(|_| symbols[rng.below(symbols.len() as u64) as usize])
        .collect();
    Seq::new(bytes, alphabet).expect("generated symbols are always valid")
}

/// Applies random edits to `pattern` at an expected per-position rate of
/// `edit_rate`, with edit types drawn from `profile`.
pub fn mutate(rng: &mut SplitMix64, pattern: &Seq, edit_rate: f64, profile: ErrorProfile) -> Seq {
    let symbols = pattern.alphabet().symbols();
    let total = profile.mismatch + profile.insertion + profile.deletion;
    let (p_mm, p_ins) = (profile.mismatch / total, profile.insertion / total);
    let mut out = Vec::with_capacity(pattern.len() + 8);
    for &b in pattern.as_bytes() {
        if rng.f64() < edit_rate {
            let r = rng.f64();
            if r < p_mm {
                // Substitute with a different symbol.
                let mut nb = b;
                while nb == b {
                    nb = symbols[rng.below(symbols.len() as u64) as usize];
                }
                out.push(nb);
            } else if r < p_mm + p_ins {
                // Insert a random symbol before the current one.
                out.push(symbols[rng.below(symbols.len() as u64) as usize]);
                out.push(b);
            }
            // else: deletion — drop the symbol.
        } else {
            out.push(b);
        }
    }
    Seq::new(out, pattern.alphabet()).expect("mutated symbols are always valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::levenshtein;

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec::d100();
        let a = spec.generate(42);
        let b = spec.generate(42);
        assert_eq!(a, b);
        let c = spec.generate(43);
        assert_ne!(a, c);
    }

    #[test]
    fn pair_counts_and_lengths() {
        let spec = DatasetSpec::d100();
        let pairs = spec.generate_n(1, 10);
        assert_eq!(pairs.len(), 10);
        for p in &pairs {
            assert_eq!(p.pattern.len(), 100);
            // Indels shift the text length slightly.
            assert!(p.text.len().abs_diff(100) <= 15);
        }
    }

    #[test]
    fn edit_rate_is_roughly_respected() {
        let spec = DatasetSpec::d10k();
        let pairs = spec.generate_n(7, 3);
        for p in &pairs {
            let d = levenshtein(p.pattern.as_bytes(), p.text.as_bytes());
            let rate = d as f64 / p.pattern.len() as f64;
            assert!(
                rate > 0.005 && rate < 0.04,
                "edit rate {rate} far from nominal 0.02"
            );
        }
        let hifi = DatasetSpec::d10k_hifi().generate_n(7, 1);
        let d = levenshtein(hifi[0].pattern.as_bytes(), hifi[0].text.as_bytes());
        let rate = d as f64 / 10_000.0;
        assert!(rate < 0.02, "HiFi rate {rate} should be ~1 %");
    }

    #[test]
    fn protein_pairs_use_protein_alphabet() {
        let pairs = DatasetSpec::protein().generate_n(3, 2);
        for p in &pairs {
            assert_eq!(p.pattern.alphabet(), Alphabet::Protein);
            assert_eq!(p.text.alphabet(), Alphabet::Protein);
        }
    }

    #[test]
    fn table2_order_is_short_to_long() {
        let specs = DatasetSpec::table2();
        let lens: Vec<usize> = specs.iter().map(|s| s.read_len).collect();
        assert_eq!(lens, vec![100, 250, 10_000, 30_000]);
        assert!(!specs[0].is_long());
        assert!(specs[2].is_long());
    }

    #[test]
    fn mutate_zero_rate_is_identity() {
        let mut rng = SplitMix64::new(5);
        let s = random_seq(&mut rng, 200, Alphabet::Dna);
        let t = mutate(&mut rng, &s, 0.0, ErrorProfile::ILLUMINA);
        assert_eq!(s, t);
    }
}
