//! The MixGraph workload model (Cao et al., FAST '20 / db_bench `mixgraph`).
//!
//! Value sizes follow a Generalized Pareto Distribution. db_bench's defaults
//! (`value_k = 0.2615`, `value_sigma = 25.45`, location 0) model Facebook's
//! ZippyDB/UDB value populations; with them, the CDF puts ≈66 % of values at
//! or below 32 bytes — the property the paper leans on in Fig 1(a) ("over
//! 60 % of values are under 32 bytes") and Fig 6(a).

use crate::KvOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the MixGraph generator.
#[derive(Debug, Clone, PartialEq)]
pub struct MixGraphConfig {
    /// GPD shape parameter k (db_bench `value_k`).
    pub value_k: f64,
    /// GPD scale parameter σ (db_bench `value_sigma`).
    pub value_sigma: f64,
    /// Values are clamped to [1, `max_value`].
    pub max_value: usize,
    /// Key length in bytes (production keys average a few tens of bytes;
    /// NVMe-KV-style commands carry up to 16 in command dwords).
    pub key_size: usize,
    /// Number of distinct keys (`all_random` access over this space).
    pub key_space: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MixGraphConfig {
    fn default() -> Self {
        MixGraphConfig {
            value_k: 0.2615,
            value_sigma: 25.45,
            max_value: 1024,
            key_size: 16,
            key_space: 5_000_000,
            seed: 0x6D69_7867, // "mixg"
        }
    }
}

/// The MixGraph operation generator.
#[derive(Debug)]
pub struct MixGraph {
    cfg: MixGraphConfig,
    rng: StdRng,
}

impl MixGraph {
    /// Creates a generator from `cfg`.
    pub fn new(cfg: MixGraphConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        MixGraph { cfg, rng }
    }

    /// A generator with db_bench defaults.
    pub fn with_defaults() -> Self {
        Self::new(MixGraphConfig::default())
    }

    /// Samples one value size from the GPD (inverse-CDF method):
    /// `x = σ/k · ((1-u)^(-k) − 1)`, clamped to [1, max_value].
    pub fn sample_value_size(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let k = self.cfg.value_k;
        let sigma = self.cfg.value_sigma;
        let x = sigma / k * ((1.0 - u).powf(-k) - 1.0);
        (x.round() as usize).clamp(1, self.cfg.max_value)
    }

    /// Generates the next PUT operation.
    pub fn next_put(&mut self) -> KvOp {
        let key_id = self.rng.gen_range(0..self.cfg.key_space);
        let value_size = self.sample_value_size();
        KvOp {
            key: make_key(key_id, self.cfg.key_size),
            value: make_value(key_id, value_size),
        }
    }
}

impl Iterator for MixGraph {
    type Item = KvOp;

    fn next(&mut self) -> Option<KvOp> {
        Some(self.next_put())
    }
}

/// Builds a fixed-width key from a key id (decimal, zero-padded — the
/// db_bench style).
pub fn make_key(id: u64, size: usize) -> Vec<u8> {
    let digits = format!("{id:020}");
    let mut key = vec![b'0'; size];
    let take = size.min(20);
    key[size - take..].copy_from_slice(&digits.as_bytes()[20 - take..]);
    key
}

/// Builds a deterministic value of `size` bytes derived from the key id.
pub(crate) fn make_value(id: u64, size: usize) -> Vec<u8> {
    (0..size)
        .map(|i| (id.wrapping_mul(31).wrapping_add(i as u64) % 251) as u8)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_distribution_matches_paper_claim() {
        // Paper (Fig 1a + §4.3): "over 60% of values are under 32 bytes".
        let mut g = MixGraph::with_defaults();
        let n = 100_000;
        let under_32 = (0..n).filter(|_| g.sample_value_size() <= 32).count();
        let frac = under_32 as f64 / n as f64;
        assert!(
            frac > 0.60 && frac < 0.75,
            "fraction under 32 B = {frac:.3}, expected ~0.66"
        );
    }

    #[test]
    fn analytic_cdf_agrees_with_samples() {
        let mut g = MixGraph::with_defaults();
        // The GPD's closed-form CDF at 32 B.
        let (k, sigma) = (g.cfg.value_k, g.cfg.value_sigma);
        let analytic = 1.0 - (1.0 + k * 32.0 / sigma).powf(-1.0 / k);
        let n = 200_000;
        let empirical = (0..n).filter(|_| g.sample_value_size() <= 32).count() as f64 / n as f64;
        assert!(
            (analytic - empirical).abs() < 0.02,
            "analytic {analytic:.3} vs empirical {empirical:.3}"
        );
    }

    #[test]
    fn sizes_clamped() {
        let mut g = MixGraph::new(MixGraphConfig {
            max_value: 100,
            ..Default::default()
        });
        for _ in 0..10_000 {
            let s = g.sample_value_size();
            assert!((1..=100).contains(&s));
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a: Vec<KvOp> = MixGraph::with_defaults().take(50).collect();
        let b: Vec<KvOp> = MixGraph::with_defaults().take(50).collect();
        assert_eq!(a, b);
        let c: Vec<KvOp> = MixGraph::new(MixGraphConfig {
            seed: 999,
            ..Default::default()
        })
        .take(50)
        .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn keys_have_configured_size() {
        let mut g = MixGraph::new(MixGraphConfig {
            key_size: 24,
            ..Default::default()
        });
        let op = g.next_put();
        assert_eq!(op.key.len(), 24);
        assert!(!op.value.is_empty());
    }

    #[test]
    fn make_key_is_stable_and_distinct() {
        assert_eq!(make_key(7, 16), make_key(7, 16));
        assert_ne!(make_key(7, 16), make_key(8, 16));
        assert_eq!(make_key(12345, 8).len(), 8);
        // Tiny keys truncate from the most-significant end.
        assert_eq!(make_key(42, 4), b"0042".to_vec());
    }

    #[test]
    fn heavy_tail_exists() {
        // The GPD is heavy-tailed: some values should exceed 256 bytes.
        let mut g = MixGraph::with_defaults();
        let big = (0..100_000).filter(|_| g.sample_value_size() > 256).count();
        assert!(big > 100, "expected a heavy tail, got {big} / 100k > 256 B");
    }
}
