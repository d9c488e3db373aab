//! db_bench FillRandom: uniform-random keys, fixed-size values.
//!
//! The paper's Fig 6(b) runs FillRandom with 128-byte values.

use crate::mixgraph::{make_key, make_value};
use crate::KvOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FillRandom generator.
#[derive(Debug)]
pub struct FillRandom {
    key_size: usize,
    value_size: usize,
    key_space: u64,
    rng: StdRng,
}

impl FillRandom {
    /// Creates a generator with `value_size`-byte values.
    pub(crate) fn new(key_size: usize, value_size: usize, key_space: u64, seed: u64) -> Self {
        FillRandom {
            key_size,
            value_size,
            key_space,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The paper's Fig 6(b) configuration: 16-byte keys, 128-byte values.
    pub fn paper_default() -> Self {
        Self::new(16, 128, 5_000_000, 0x66696C6C)
    }
}

impl Iterator for FillRandom {
    type Item = KvOp;

    fn next(&mut self) -> Option<KvOp> {
        let id = self.rng.gen_range(0..self.key_space);
        Some(KvOp {
            key: make_key(id, self.key_size),
            value: make_value(id, self.value_size),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_value_size() {
        let ops: Vec<KvOp> = FillRandom::paper_default().take(100).collect();
        assert!(ops.iter().all(|op| op.value.len() == 128));
        assert!(ops.iter().all(|op| op.key.len() == 16));
    }

    #[test]
    fn deterministic_for_seed() {
        let a: Vec<KvOp> = FillRandom::new(16, 64, 1000, 1).take(20).collect();
        let b: Vec<KvOp> = FillRandom::new(16, 64, 1000, 1).take(20).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn keys_vary() {
        let ops: Vec<KvOp> = FillRandom::paper_default().take(100).collect();
        let distinct: std::collections::HashSet<_> = ops.iter().map(|o| &o.key).collect();
        assert!(distinct.len() > 90, "keys should be near-unique");
    }
}
