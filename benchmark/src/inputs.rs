//! Input generation. Everything a timed loop consumes is produced here, in
//! set-up, from `--seed`, into compact arrays: the timed loops do no RNG
//! work and the library only ever sees generated inputs.

use crate::adapter::{kv_key, KeyRanks, ValueSizes};

/// splitmix64: tiny, seedable, and good enough to scatter offsets.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias at n << 2^64 is nil).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Payload bytes are slices of one shared pool, so an op is an
/// (offset, length) pair instead of an owned buffer.
pub const POOL_BYTES: usize = 1 << 20;
/// Largest payload any workload slices out of the pool.
pub const MAX_PAYLOAD: usize = 4096;

/// `POOL_BYTES` seeded bytes.
pub fn byte_pool(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ 0x706f_6f6c);
    let mut pool = Vec::with_capacity(POOL_BYTES);
    while pool.len() < POOL_BYTES {
        pool.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    pool
}

/// A random pool offset that leaves room for `MAX_PAYLOAD` bytes.
fn pool_off(rng: &mut Rng) -> u32 {
    rng.below((POOL_BYTES - MAX_PAYLOAD) as u64) as u32
}

/// Ops per timed block in the four per-command workloads.
pub const BLOCK_OPS: usize = 4096;

/// `fig5_qd1`: one block-long schedule of (LBA, pool offset), replayed by
/// every cell so cells differ only in size and method.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Inputs {
    pub pool: Vec<u8>,
    pub lbas: Vec<u32>,
    pub offs: Vec<u32>,
}

impl Fig5Inputs {
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        Fig5Inputs {
            pool: byte_pool(seed),
            lbas: (0..BLOCK_OPS)
                .map(|_| rng.below(16 * 1024) as u32)
                .collect(),
            offs: (0..BLOCK_OPS).map(|_| pool_off(&mut rng)).collect(),
        }
    }
}

/// Keys preloaded into the store before `kv_mixed`'s timed region.
pub const KV_KEYS: usize = 200_000;

/// One `kv_mixed` op packed into a word: bit 0 = PUT, bits 1..19 the key
/// index, bits 19..29 the value length minus one, bits 29..49 the value's
/// pool offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvOp(u64);

impl KvOp {
    pub fn new(is_put: bool, key: u32, off: u32, len: u16) -> Self {
        debug_assert!((key as usize) < KV_KEYS && (1..=1024).contains(&len));
        debug_assert!((off as usize) < POOL_BYTES);
        KvOp(is_put as u64 | (key as u64) << 1 | (len as u64 - 1) << 19 | (off as u64) << 29)
    }
    pub fn is_put(self) -> bool {
        self.0 & 1 == 1
    }
    pub fn key(self) -> usize {
        (self.0 >> 1 & 0x3ffff) as usize
    }
    pub fn len(self) -> usize {
        (self.0 >> 19 & 0x3ff) as usize + 1
    }
    pub fn off(self) -> usize {
        (self.0 >> 29 & 0xfffff) as usize
    }
}

/// `kv_mixed`: the loaded key set, one preload PUT per key, and the timed
/// op stream (50 % PUT with MixGraph value sizes, 50 % GET, keys drawn
/// Zipf(0.99) over the loaded set).
#[derive(Debug, Clone, PartialEq)]
pub struct KvInputs {
    pub pool: Vec<u8>,
    pub keys: Vec<[u8; 16]>,
    pub preload: Vec<KvOp>,
    pub ops: Vec<KvOp>,
}

impl KvInputs {
    pub fn generate(seed: u64, ops: usize) -> Self {
        let mut rng = Rng::new(seed);
        let mut sizes = ValueSizes::new(seed);
        let mut ranks = KeyRanks::new(KV_KEYS as u64, seed);
        // Distinct key ids: a random start and an odd stride walk the
        // MixGraph key space without repeats.
        let space = 5_000_000u64;
        let start = rng.below(space);
        let stride = rng.below(space / KV_KEYS as u64 - 1) + 1;
        let keys = (0..KV_KEYS as u64)
            .map(|i| kv_key((start + i * stride) % space))
            .collect();
        let preload = (0..KV_KEYS as u32)
            .map(|k| KvOp::new(true, k, pool_off(&mut rng), sizes.next_len()))
            .collect();
        let ops = (0..ops)
            .map(|_| {
                let is_put = rng.next_u64() & 1 == 1;
                let len = if is_put { sizes.next_len() } else { 1 };
                KvOp::new(is_put, ranks.next() as u32, pool_off(&mut rng), len)
            })
            .collect();
        KvInputs {
            pool: byte_pool(seed),
            keys,
            preload,
            ops,
        }
    }
}

/// Shards and clients per shard of the `mq_reactor*` pair.
pub const MQ_SHARDS: usize = 4;
pub const MQ_CLIENTS_PER_SHARD: usize = 8;
/// Each client's private LBA window.
pub const MQ_WINDOW: u64 = 256;
/// The write sizes every client cycles through.
pub const MQ_SIZES: [usize; 8] = [64, 64, 128, 64, 256, 64, 512, 128];

/// Where client `client`'s `i`-th write goes and what it carries. The
/// program is arithmetic on purpose: 32 clients times millions of ops would
/// otherwise need an array per client, and the seed already decides every
/// byte through the pool.
pub fn mq_op(client: usize, i: u64) -> (u64, usize, usize) {
    let lba = client as u64 * MQ_WINDOW + i % MQ_WINDOW;
    let len = MQ_SIZES[(i % MQ_SIZES.len() as u64) as usize];
    let off = ((client as u64 * 7919 + i * 193) % (POOL_BYTES - MAX_PAYLOAD) as u64) as usize;
    (lba, off, len)
}

/// Durable PUTs attempted per `crash_rebuild` cycle, over this many keys.
pub const CRASH_PUTS: usize = 12;
pub const CRASH_KEYS: usize = 5;
/// Cut indices are swept over these many controller processing events per
/// mode. Twelve PUTs are 24 events under Serial/queue-local and about 100
/// under Pipelined/reassembly (one per chunk fetched); a countdown that
/// outlives them leaves a clean run ended by a deliberate hard power cycle,
/// which the last indices of each range cover.
pub const CRASH_CUT_RANGE_SERIAL: u64 = 26;
pub const CRASH_CUT_RANGE_PIPELINED: u64 = 104;

/// One device life-cycle of `crash_rebuild`.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashCycle {
    /// Power is cut after this many controller processing events.
    pub cut_after: u64,
    /// Odd cycles run Pipelined + reassembly, even ones Serial + queue-local.
    pub pipelined: bool,
    /// (pool offset, length) of each PUT's value.
    pub values: [(u32, u16); CRASH_PUTS],
}

#[derive(Debug, Clone, PartialEq)]
pub struct CrashInputs {
    pub pool: Vec<u8>,
    pub cycles: Vec<CrashCycle>,
}

impl CrashInputs {
    pub fn generate(seed: u64, cycles: usize) -> Self {
        let mut rng = Rng::new(seed);
        let cycles = (0..cycles as u64)
            .map(|c| CrashCycle {
                // Serial cycles walk their range in order; pipelined ones
                // stride through theirs (5 is coprime to 104) so that short
                // runs still see early and late cuts.
                cut_after: if c % 2 == 1 {
                    c / 2 * 5 % CRASH_CUT_RANGE_PIPELINED
                } else {
                    c / 2 % CRASH_CUT_RANGE_SERIAL
                },
                pipelined: c % 2 == 1,
                values: std::array::from_fn(|_| (pool_off(&mut rng), 180 + rng.below(200) as u16)),
            })
            .collect();
        CrashInputs {
            pool: byte_pool(seed),
            cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_functions_of_the_seed() {
        assert_eq!(Fig5Inputs::generate(7), Fig5Inputs::generate(7));
        assert_ne!(Fig5Inputs::generate(7), Fig5Inputs::generate(8));
        assert_eq!(KvInputs::generate(7, 5000), KvInputs::generate(7, 5000));
        assert_ne!(
            KvInputs::generate(7, 5000).ops,
            KvInputs::generate(8, 5000).ops
        );
        assert_eq!(CrashInputs::generate(7, 40), CrashInputs::generate(7, 40));
        assert_ne!(
            CrashInputs::generate(7, 40).cycles,
            CrashInputs::generate(8, 40).cycles
        );
        assert_eq!(byte_pool(3), byte_pool(3));
        assert_ne!(byte_pool(3), byte_pool(4));
    }

    #[test]
    fn kv_ops_unpack_what_was_packed() {
        let op = KvOp::new(true, 199_999, (POOL_BYTES - MAX_PAYLOAD - 1) as u32, 1024);
        assert!(op.is_put());
        assert_eq!(op.key(), 199_999);
        assert_eq!(op.off(), POOL_BYTES - MAX_PAYLOAD - 1);
        assert_eq!(op.len(), 1024);
        let op = KvOp::new(false, 0, 0, 1);
        assert!(!op.is_put());
        assert_eq!((op.key(), op.off(), op.len()), (0, 0, 1));
    }

    #[test]
    fn kv_stream_has_the_requested_shape() {
        let inp = KvInputs::generate(1, 20_000);
        assert_eq!(inp.keys.len(), KV_KEYS);
        let mut distinct = inp.keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), KV_KEYS, "preloaded keys must be distinct");
        let puts = inp.ops.iter().filter(|o| o.is_put()).count();
        assert!((9_000..11_000).contains(&puts), "puts = {puts}");
        // Zipf(0.99): the hottest 1 % of keys draw well over a third.
        let hot = inp.ops.iter().filter(|o| o.key() < KV_KEYS / 100).count();
        assert!(hot > 20_000 / 3, "hot = {hot}");
        // MixGraph: most values are tens of bytes.
        let small = inp.preload.iter().filter(|o| o.len() <= 32).count();
        assert!(small > KV_KEYS / 2, "small = {small}");
    }

    #[test]
    fn mq_ops_stay_inside_the_client_window_and_the_pool() {
        for client in [0, 31] {
            for i in [0u64, 1, 255, 256, 1_000_003] {
                let (lba, off, len) = mq_op(client, i);
                assert!((client as u64 * MQ_WINDOW..(client as u64 + 1) * MQ_WINDOW).contains(&lba));
                assert!(off + len <= POOL_BYTES);
                assert!(MQ_SIZES.contains(&len));
            }
        }
    }

    #[test]
    fn crash_cycles_alternate_modes_and_sweep_the_cut() {
        let inp = CrashInputs::generate(1, 208);
        let cuts = |pipelined: bool| -> std::collections::BTreeSet<u64> {
            let mode = inp.cycles.iter().skip(pipelined as usize).step_by(2);
            mode.inspect(|c| assert_eq!(c.pipelined, pipelined))
                .map(|c| c.cut_after)
                .collect()
        };
        assert_eq!(cuts(false), (0..CRASH_CUT_RANGE_SERIAL).collect());
        assert_eq!(cuts(true), (0..CRASH_CUT_RANGE_PIPELINED).collect());
        assert!(inp
            .cycles
            .iter()
            .flat_map(|c| c.values)
            .all(|(off, len)| (180..380).contains(&len) && off as usize + 380 <= POOL_BYTES));
    }
}
