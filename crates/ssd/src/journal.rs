//! Append-only FTL mapping-table journal with bounded checkpoints.
//!
//! Every mapping-table mutation (host write, GC relocation) is recorded here
//! *before* the command is acknowledged:
//! the FTL acks at `max(nand_program_done, record_durable_at)`, the
//! write-ahead ordering NVLog (arXiv 2408.02911) uses for its NVMe-backed
//! log. On restart after a power cut the map is rebuilt from the newest
//! durable checkpoint plus an in-order replay of the surviving record tail —
//! the redo side of the durable-linearizability contract from "Durable
//! Queues: The Second Amendment" (arXiv 2105.08706): an acked update must
//! survive any crash point, an unacked one may vanish but never half-apply.
//!
//! The journal models a reserved SLC metadata region (OpenSSD firmware
//! convention) *outside* the FTL's exported block space: records are small
//! (48 B) and appended with partial-page SLC programs whose latency rides a
//! private busy chain, so journaling never contends with host-data dies and
//! — under the Serial execution model — never moves a command's completion
//! time (`record_durable_at` ≪ `nand_program_done` for every append that
//! shares a dispatch). No trace events and no wire traffic are emitted on
//! the append path, keeping no-fault runs bit-identical to the pre-journal
//! baseline.
//!
//! Torn tails are first-class: a cut mid-append leaves exactly one record
//! with a broken checksum; replay stops there and discards it (the update it
//! described was never acked — its ack would have waited for `durable_at`).
//!
//! Only recovery reads the medium, so records are encoded where they are
//! read back: an append keeps the decoded record, and [`MapJournal::replayable`]
//! and [`MapJournal::truncate_torn`] put each one through the 48-byte
//! encoding, the torn one with its tail zeroed, and its checksum.

use crate::nand::{PackedPpa, Ppa};
use bx_hostsim::Nanos;
use std::collections::VecDeque;

/// Amortized SLC program latency charged per appended record: 85 × 48 B
/// records pack into one 4 KB metadata page, and a ~170 µs SLC page program
/// spread across them is ~2 µs per record on the journal's busy chain.
pub(crate) const JOURNAL_APPEND_LATENCY: Nanos = Nanos::from_us(2);

/// Latency of persisting one checkpoint snapshot to the metadata region.
pub(crate) const CHECKPOINT_LATENCY: Nanos = Nanos::from_us(100);

/// Encoded record size on the journal medium.
pub(crate) const RECORD_BYTES: usize = 48;

/// Live-record threshold beyond which [`MapJournal::needs_checkpoint`]
/// asks the FTL to bound the replay tail.
pub(crate) const DEFAULT_CHECKPOINT_THRESHOLD: usize = 16 * 1024;

/// One journaled mapping-table mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalOp {
    /// `lpn` now maps to `ppa`; it previously mapped to `prev` (if any).
    /// Replay falls back to `prev` when `ppa`'s program was torn by the cut
    /// — the record is durable before the data, so the last *acked* version
    /// is always reachable.
    MapUpdate {
        /// Logical page whose mapping changed.
        lpn: u64,
        /// New physical location.
        ppa: Ppa,
        /// Previous physical location, if the page was mapped before.
        prev: Option<Ppa>,
    },
}

/// A decoded record: the op plus its monotonic sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JournalRecord {
    /// Monotonic append sequence number.
    pub seq: u32,
    /// The journaled mutation.
    pub op: JournalOp,
}

// Kind 2 was TRIM and kind 3 a grown-bad block retirement, neither of which
// the FTL has any more; the decoder rejects them like any other unknown kind.
const KIND_MAP_UPDATE: u8 = 1;
const FLAG_HAS_PREV: u8 = 1;

/// CRC-32 remainders of every byte value (IEEE 802.3 polynomial, reflected),
/// computed at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
};

/// Table-driven CRC-32 (IEEE 802.3). One lookup per byte; recovery
/// checksums every surviving record.
fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(0xFFFF_FFFF_u32, |crc, &b| {
        (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize]
    })
}

fn encode(rec: &JournalRecord) -> [u8; RECORD_BYTES] {
    let JournalOp::MapUpdate { lpn, ppa, prev } = rec.op;
    let mut buf = [0u8; RECORD_BYTES];
    buf[0] = KIND_MAP_UPDATE;
    buf[1] = if prev.is_some() { FLAG_HAS_PREV } else { 0 };
    buf[2..4].copy_from_slice(&ppa.channel.to_le_bytes());
    buf[4..6].copy_from_slice(&ppa.die.to_le_bytes());
    buf[6..10].copy_from_slice(&ppa.block.to_le_bytes());
    buf[10..14].copy_from_slice(&ppa.page.to_le_bytes());
    buf[14..22].copy_from_slice(&lpn.to_le_bytes());
    if let Some(p) = prev {
        buf[22..24].copy_from_slice(&p.channel.to_le_bytes());
        buf[24..26].copy_from_slice(&p.die.to_le_bytes());
        buf[26..30].copy_from_slice(&p.block.to_le_bytes());
        buf[30..34].copy_from_slice(&p.page.to_le_bytes());
    }
    buf[34..38].copy_from_slice(&rec.seq.to_le_bytes());
    let crc = crc32(&buf[..RECORD_BYTES - 4]);
    buf[RECORD_BYTES - 4..].copy_from_slice(&crc.to_le_bytes());
    buf
}

fn u16_at(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

fn u32_at(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

fn decode(buf: &[u8; RECORD_BYTES]) -> Option<JournalRecord> {
    let stored = u32_at(buf, RECORD_BYTES - 4);
    if crc32(&buf[..RECORD_BYTES - 4]) != stored {
        return None;
    }
    let target = Ppa {
        channel: u16_at(buf, 2),
        die: u16_at(buf, 4),
        block: u32_at(buf, 6),
        page: u32_at(buf, 10),
    };
    let lpn = u64::from_le_bytes([
        buf[14], buf[15], buf[16], buf[17], buf[18], buf[19], buf[20], buf[21],
    ]);
    let seq = u32_at(buf, 34);
    if buf[0] != KIND_MAP_UPDATE {
        return None;
    }
    let prev = (buf[1] & FLAG_HAS_PREV != 0).then(|| Ppa {
        channel: u16_at(buf, 22),
        die: u16_at(buf, 24),
        block: u32_at(buf, 26),
        page: u32_at(buf, 30),
    });
    let op = JournalOp::MapUpdate {
        lpn,
        ppa: target,
        prev,
    };
    Some(JournalRecord { seq, op })
}

/// One record in the journal region, plus the volatile side metadata the
/// durability model needs (the two timestamps are not on the medium).
#[derive(Debug, Clone)]
struct StoredRecord {
    rec: JournalRecord,
    /// A power cut landed mid-program: on the medium, the record's last
    /// eight bytes — its checksum among them — are zeros.
    torn: bool,
    /// When the journal program for this record completes — acks wait for
    /// this; a cut before it tears the record.
    durable_at: Nanos,
    /// When the NAND program of the record's *target* page completes.
    /// Checkpoints only absorb records whose targets are already durable.
    target_done: Nanos,
}

impl StoredRecord {
    /// What recovery decodes from the medium: the record, or `None` where
    /// its checksum fails.
    fn read_back(&self) -> Option<JournalRecord> {
        let mut bytes = encode(&self.rec);
        if self.torn {
            bytes[RECORD_BYTES - 8..].fill(0);
        }
        decode(&bytes)
    }
}

/// A persisted map snapshot: replaces every record with `seq < covers_below`.
#[derive(Debug, Clone)]
pub(crate) struct Checkpoint {
    /// All records with `seq < covers_below` are folded into `map`
    /// (exclusive bound, so `0` means "covers nothing").
    pub covers_below: u32,
    /// Snapshot of the logical-to-physical map, in the FTL's own slots.
    pub map: Vec<Option<PackedPpa>>,
    /// When the snapshot program completed; a cut before this discards it.
    durable_at: Nanos,
}

/// Journal activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct JournalStats {
    /// Records appended.
    pub appends: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Records pruned after being absorbed by a durable checkpoint.
    pub pruned: u64,
    /// Records discarded as torn (broken checksum) during recovery.
    pub torn_records: u64,
}

/// The append-only mapping journal (reserved SLC metadata region).
#[derive(Debug)]
pub struct MapJournal {
    /// The live tail, in ascending `seq`: appended at the back, reclaimed
    /// from the front once a durable checkpoint covers a prefix — NVLog's
    /// constant-time append with prefix reclamation.
    records: VecDeque<StoredRecord>,
    /// Oldest first: the newest durable snapshot, then at most one still in
    /// flight.
    checkpoints: Vec<Checkpoint>,
    next_seq: u32,
    /// The journal region's program busy chain.
    busy_until: Nanos,
    pub(crate) checkpoint_threshold: usize,
    pub(crate) stats: JournalStats,
}

impl MapJournal {
    /// An empty journal with the default checkpoint threshold.
    pub fn new() -> Self {
        MapJournal {
            records: VecDeque::new(),
            checkpoints: Vec::new(),
            next_seq: 0,
            busy_until: Nanos::ZERO,
            checkpoint_threshold: DEFAULT_CHECKPOINT_THRESHOLD,
            stats: JournalStats::default(),
        }
    }

    /// The instant the last journal program completes. The FTL waits through
    /// this horizon before erasing blocks that hold superseded copies:
    /// destroying an old version is only safe once the record naming its
    /// replacement is on the medium.
    pub(crate) fn durable_horizon(&self) -> Nanos {
        self.busy_until
    }

    /// Appends one record; returns the instant it becomes durable. The
    /// caller must not ack the corresponding update before that instant.
    pub fn append(&mut self, op: JournalOp, target_done: Nanos, now: Nanos) -> Nanos {
        self.prune_covered(now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.busy_until = self.busy_until.max(now) + JOURNAL_APPEND_LATENCY;
        self.records.push_back(StoredRecord {
            rec: JournalRecord { seq, op },
            torn: false,
            durable_at: self.busy_until,
            target_done,
        });
        self.stats.appends += 1;
        self.busy_until
    }

    /// Whether the live tail is long enough that the FTL should write a
    /// checkpoint on its next opportunity.
    pub fn needs_checkpoint(&self) -> bool {
        self.records.len() >= self.checkpoint_threshold
    }

    /// Persists a snapshot of the current map, absorbing
    /// every record whose *target* is already durable at `now`. Records with
    /// in-flight targets stay live: their map entries in the snapshot may
    /// point at pages a later cut tears, and only their journal records (with
    /// the prev-PPA fallback) can repair that on replay.
    ///
    /// Does nothing while the previous snapshot is still programming: the
    /// tail cannot shrink until that one is durable, so a second snapshot
    /// would absorb nothing, only lengthen the busy chain — and a storm of
    /// them would push the last durable snapshot out of the region.
    ///
    /// `_retired` is ignored: it was the grown-bad block list, which the FTL
    /// no longer keeps. It stays in the signature only because the
    /// standalone `benchmark/` package still passes an empty one.
    pub fn write_checkpoint(
        &mut self,
        map: &[Option<PackedPpa>],
        _retired: impl IntoIterator<Item = (u16, u16, u32)>,
        now: Nanos,
    ) {
        if self.checkpoints.last().is_some_and(|c| c.durable_at > now) {
            return;
        }
        // Longest prefix of the live tail whose targets are durable.
        let mut covers_below = self.checkpoints.last().map(|c| c.covers_below).unwrap_or(0);
        for rec in &self.records {
            if rec.target_done <= now {
                covers_below = rec.rec.seq + 1;
            } else {
                break;
            }
        }
        self.busy_until = self.busy_until.max(now) + CHECKPOINT_LATENCY;
        self.checkpoints.push(Checkpoint {
            covers_below,
            map: map.to_vec(),
            durable_at: self.busy_until,
        });
        // The new snapshot may not be durable yet when a cut lands, in which
        // case recovery falls back to the newest durable one — whose covered
        // records are already pruned, so it must stay. Anything older is
        // superseded.
        if let Some(fallback) = self.checkpoints.iter().rposition(|c| c.durable_at <= now) {
            self.checkpoints.drain(..fallback);
        }
        self.stats.checkpoints += 1;
        self.prune_covered(now);
    }

    /// Persists a snapshot of the map recovery just rebuilt, covering every
    /// surviving record: replay resolved each of them, a torn target's
    /// fallback included. After it, no later recovery replays a record
    /// whose target the cut tore — a page that GC may since have erased and
    /// programmed with another LPN's data.
    pub(crate) fn checkpoint_recovered(&mut self, map: &[Option<PackedPpa>]) {
        self.busy_until += CHECKPOINT_LATENCY;
        self.checkpoints.push(Checkpoint {
            covers_below: self.next_seq,
            map: map.to_vec(),
            durable_at: self.busy_until,
        });
        self.stats.checkpoints += 1;
    }

    /// Drops records absorbed by a checkpoint that is already durable. They
    /// are a prefix of the tail (`seq` ascends), so the cost is the number
    /// dropped, not the number live.
    fn prune_covered(&mut self, now: Nanos) {
        let Some(covers) = self
            .checkpoints
            .iter()
            .filter(|c| c.durable_at <= now)
            .map(|c| c.covers_below)
            .max()
        else {
            return;
        };
        while self.records.front().is_some_and(|r| r.rec.seq < covers) {
            self.records.pop_front();
            self.stats.pruned += 1;
        }
    }

    /// A power cut at instant `at`: checkpoints and records that had not
    /// finished programming are lost. The first in-flight record is kept
    /// torn — its tail zeroed, the signature replay must detect via the
    /// checksum — and everything after it never reached the medium.
    pub(crate) fn power_cut(&mut self, at: Nanos) {
        self.checkpoints.retain(|c| c.durable_at <= at);
        if let Some(first_torn) = self.records.iter().position(|r| r.durable_at > at) {
            self.records.truncate(first_torn + 1);
            self.records[first_torn].torn = true;
        }
        self.busy_until = at;
    }

    /// The newest durable checkpoint (recovery's base state), if any.
    pub(crate) fn recovery_base(&self) -> Option<&Checkpoint> {
        self.checkpoints.last()
    }

    /// Decodes the surviving record tail from `from_seq` on (inclusive), in
    /// append order, stopping at the first checksum failure (the torn
    /// append). Returns the replayable records and whether a torn tail was
    /// found.
    pub(crate) fn replayable(&self, from_seq: u32) -> (Vec<JournalRecord>, bool) {
        let mut out = Vec::new();
        for rec in &self.records {
            match rec.read_back() {
                Some(r) => {
                    if r.seq >= from_seq {
                        out.push(r);
                    }
                }
                None => return (out, true),
            }
        }
        (out, false)
    }

    /// Discards the torn tail record (if any) after recovery has replayed
    /// the durable prefix, leaving the journal clean for new appends.
    pub(crate) fn truncate_torn(&mut self) {
        if let Some(pos) = self.records.iter().position(|r| r.read_back().is_none()) {
            self.stats.torn_records += (self.records.len() - pos) as u64;
            self.records.truncate(pos);
        }
    }
}

impl Default for MapJournal {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ppa(channel: u16, die: u16, block: u32, page: u32) -> Ppa {
        Ppa {
            channel,
            die,
            block,
            page,
        }
    }

    /// A mapping of `lpn` to page `lpn` of block 0, with no previous one.
    fn update(lpn: u64) -> JournalOp {
        JournalOp::MapUpdate {
            lpn,
            ppa: ppa(0, 0, 0, lpn as u32),
            prev: None,
        }
    }

    /// The bit-at-a-time CRC-32 the table replaced: the reference.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The journal as it was before records were encoded on read-back and
    /// before the prefix prune: every append encodes and checksums its
    /// record, a power cut zeroes the torn record's tail in place, and the
    /// `Vec` tail is swept by `retain` on every append. Same checkpoint
    /// policy as [`MapJournal`].
    #[derive(Default)]
    struct EagerJournal {
        /// `(bytes, seq, durable_at, target_done)`.
        records: Vec<([u8; RECORD_BYTES], u32, Nanos, Nanos)>,
        /// `(covers_below, durable_at)`.
        checkpoints: Vec<(u32, Nanos)>,
        next_seq: u32,
        busy_until: Nanos,
        stats: JournalStats,
    }

    impl EagerJournal {
        fn prune(&mut self, now: Nanos) {
            let durable = self.checkpoints.iter().filter(|c| c.1 <= now);
            let Some(covers) = durable.map(|c| c.0).max() else {
                return;
            };
            let before = self.records.len();
            self.records.retain(|r| r.1 >= covers);
            self.stats.pruned += (before - self.records.len()) as u64;
        }

        fn append(&mut self, op: JournalOp, target_done: Nanos, now: Nanos) -> Nanos {
            self.prune(now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.busy_until = self.busy_until.max(now) + JOURNAL_APPEND_LATENCY;
            self.records.push((
                encode(&JournalRecord { seq, op }),
                seq,
                self.busy_until,
                target_done,
            ));
            self.stats.appends += 1;
            self.busy_until
        }

        fn write_checkpoint(&mut self, now: Nanos) {
            if self.checkpoints.last().is_some_and(|c| c.1 > now) {
                return;
            }
            let mut covers = self.checkpoints.last().map_or(0, |c| c.0);
            for r in self.records.iter().take_while(|r| r.3 <= now) {
                covers = r.1 + 1;
            }
            self.busy_until = self.busy_until.max(now) + CHECKPOINT_LATENCY;
            let newest_durable = self.checkpoints.iter().rposition(|c| c.1 <= now);
            self.checkpoints.drain(..newest_durable.unwrap_or(0));
            self.checkpoints.push((covers, self.busy_until));
            self.stats.checkpoints += 1;
            self.prune(now);
        }

        fn power_cut(&mut self, at: Nanos) {
            self.checkpoints.retain(|c| c.1 <= at);
            if let Some(first_torn) = self.records.iter().position(|r| r.2 > at) {
                self.records.truncate(first_torn + 1);
                self.records[first_torn].0[RECORD_BYTES - 8..].fill(0);
            }
            self.busy_until = at;
        }

        fn replayable(&self, from_seq: u32) -> (Vec<JournalRecord>, bool) {
            let mut out = Vec::new();
            for r in &self.records {
                match decode(&r.0) {
                    Some(rec) if rec.seq >= from_seq => out.push(rec),
                    Some(_) => {}
                    None => return (out, true),
                }
            }
            (out, false)
        }

        fn truncate_torn(&mut self) {
            if let Some(pos) = self.records.iter().position(|r| decode(&r.0).is_none()) {
                self.stats.torn_records += (self.records.len() - pos) as u64;
                self.records.truncate(pos);
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Step {
        /// Advance the clock by `gap_us`, append `op` with a target that
        /// lands `target_us` later.
        Append {
            gap_us: u64,
            target_us: u64,
            op: JournalOp,
        },
        Checkpoint,
        /// Cut `back_us` before the clock (never before the previous cut),
        /// then recover: replay, truncate the torn tail.
        CutAndRecover {
            back_us: u64,
        },
    }

    /// A map update over every field's whole range.
    fn op_strategy() -> impl Strategy<Value = JournalOp> {
        let any_ppa = || (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>());
        (any::<u64>(), any_ppa(), any::<bool>(), any_ppa()).prop_map(
            |(lpn, (c, d, b, p), has_prev, (pc, pd, pb, pp))| JournalOp::MapUpdate {
                lpn,
                ppa: ppa(c, d, b, p),
                prev: has_prev.then(|| ppa(pc, pd, pb, pp)),
            },
        )
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        prop_oneof![
            12 => (0..60u64, 0..400u64, op_strategy())
                .prop_map(|(gap_us, target_us, op)| Step::Append { gap_us, target_us, op }),
            3 => Just(Step::Checkpoint),
            1 => (0..150u64).prop_map(|back_us| Step::CutAndRecover { back_us }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn table_crc_equals_bitwise_crc(
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }

        /// Encoding on read-back replays, tears and prunes exactly what the
        /// eager encoder with its full `retain` sweep did, through
        /// checkpoints, power cuts and torn-tail truncation.
        #[test]
        fn matches_the_eager_retain_journal(
            steps in proptest::collection::vec(step_strategy(), 1..300),
        ) {
            let mut journal = MapJournal::new();
            journal.checkpoint_threshold = 4;
            let mut naive = EagerJournal::default();
            let mut now = Nanos::ZERO;
            let mut floor = Nanos::ZERO;
            for step in steps {
                match step {
                    Step::Append { gap_us, target_us, op } => {
                        now += Nanos::from_us(gap_us);
                        let target = now + Nanos::from_us(target_us);
                        prop_assert_eq!(
                            journal.append(op, target, now),
                            naive.append(op, target, now)
                        );
                        if journal.needs_checkpoint() {
                            journal.write_checkpoint(&[], [], now);
                            naive.write_checkpoint(now);
                        }
                    }
                    Step::Checkpoint => {
                        journal.write_checkpoint(&[], [], now);
                        naive.write_checkpoint(now);
                    }
                    Step::CutAndRecover { back_us } => {
                        let at = now.saturating_sub(Nanos::from_us(back_us)).max(floor);
                        journal.power_cut(at);
                        naive.power_cut(at);
                        let base = journal.recovery_base().map_or(0, |c| c.covers_below);
                        prop_assert_eq!(base, naive.checkpoints.last().map_or(0, |c| c.0));
                        prop_assert_eq!(journal.replayable(base), naive.replayable(base));
                        journal.truncate_torn();
                        naive.truncate_torn();
                        floor = at;
                        now = at;
                    }
                }
                prop_assert_eq!(journal.records.len(), naive.records.len());
                prop_assert_eq!(journal.stats, naive.stats);
                prop_assert_eq!(journal.replayable(0), naive.replayable(0));
                prop_assert_eq!(journal.durable_horizon(), naive.busy_until);
            }
        }
    }

    #[test]
    fn record_round_trip_all_kinds() {
        for op in [
            JournalOp::MapUpdate {
                lpn: 7,
                ppa: ppa(1, 2, 3, 4),
                prev: Some(ppa(5, 6, 7, 8)),
            },
            JournalOp::MapUpdate {
                lpn: u64::MAX,
                ppa: ppa(0, 0, 0, 0),
                prev: None,
            },
        ] {
            let rec = JournalRecord { seq: 9, op };
            let buf = encode(&rec);
            assert_eq!(decode(&buf), Some(rec));
        }
    }

    /// A record of an unknown kind — 2 and 3, the retired TRIM and block
    /// retirement, among them — is rejected even under a valid checksum:
    /// replay stops there, as at a torn record, and applies no mapping
    /// change.
    #[test]
    fn unknown_kind_is_rejected_under_a_valid_checksum() {
        let rec = JournalRecord {
            seq: 1,
            op: update(5),
        };
        for kind in [0, 2, 3, 4, u8::MAX] {
            let mut buf = encode(&rec);
            buf[0] = kind;
            let crc = crc32(&buf[..RECORD_BYTES - 4]);
            buf[RECORD_BYTES - 4..].copy_from_slice(&crc.to_le_bytes());
            assert_eq!(decode(&buf), None, "kind {kind}");
        }
    }

    #[test]
    fn corrupted_record_fails_checksum() {
        let rec = JournalRecord {
            seq: 1,
            op: update(5),
        };
        let mut buf = encode(&rec);
        buf[14] ^= 0x40;
        assert_eq!(decode(&buf), None);
    }

    #[test]
    fn append_is_sequenced_and_durable_on_the_busy_chain() {
        let mut j = MapJournal::new();
        let t0 = Nanos::from_us(10);
        let d1 = j.append(update(1), Nanos::ZERO, t0);
        let d2 = j.append(update(2), Nanos::ZERO, t0);
        assert_eq!(d1, t0 + JOURNAL_APPEND_LATENCY);
        assert_eq!(d2, d1 + JOURNAL_APPEND_LATENCY, "appends serialize");
        assert_eq!(j.records.len(), 2);
        let (recs, torn) = j.replayable(1);
        assert!(!torn);
        assert_eq!(recs.len(), 1, "from_seq is inclusive");
        let (all, _) = j.replayable(0);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn power_cut_tears_exactly_the_in_flight_append() {
        let mut j = MapJournal::new();
        let t0 = Nanos::ZERO;
        let d1 = j.append(update(1), Nanos::ZERO, t0);
        let _d2 = j.append(update(2), Nanos::ZERO, t0);
        let _d3 = j.append(update(3), Nanos::ZERO, t0);
        // Cut lands while record 2's program is in flight.
        j.power_cut(d1);
        let (recs, torn) = j.replayable(0);
        assert!(torn, "in-flight append must read back torn");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].op, update(1));
        j.truncate_torn();
        assert_eq!(j.records.len(), 1);
        assert_eq!(j.stats.torn_records, 1);
        let (recs, torn) = j.replayable(0);
        assert!(!torn);
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn checkpoint_absorbs_only_durable_targets() {
        let mut j = MapJournal::new();
        let now = Nanos::from_ms(1);
        // Record 0's target finished; record 1's target is still in flight.
        j.append(
            JournalOp::MapUpdate {
                lpn: 0,
                ppa: ppa(0, 0, 0, 0),
                prev: None,
            },
            Nanos::from_us(500),
            now,
        );
        j.append(
            JournalOp::MapUpdate {
                lpn: 1,
                ppa: ppa(0, 0, 0, 1),
                prev: None,
            },
            Nanos::from_ms(2),
            now,
        );
        let map = [PackedPpa::new(1), PackedPpa::new(2)];
        j.write_checkpoint(&map, [], now);
        // Once the checkpoint is durable, an append prunes the covered
        // record but keeps the in-flight-target one.
        let later = j.durable_horizon() + Nanos::from_us(1);
        j.append(update(9), Nanos::ZERO, later);
        assert_eq!(j.records.len(), 2, "in-flight-target record stays live");
        let base = j.recovery_base().expect("checkpoint exists");
        assert_eq!(base.covers_below, 1);
        let (recs, _) = j.replayable(base.covers_below);
        assert_eq!(recs.len(), 2);
        assert!(matches!(recs[0].op, JournalOp::MapUpdate { lpn: 1, .. }));
    }

    #[test]
    fn cut_before_checkpoint_durable_discards_it() {
        let mut j = MapJournal::new();
        let now = Nanos::ZERO;
        j.append(update(1), Nanos::ZERO, now);
        let before = j.durable_horizon();
        j.write_checkpoint(&[], [], before);
        j.power_cut(before); // checkpoint program still in flight
        assert!(j.recovery_base().is_none());
        let (recs, torn) = j.replayable(0);
        assert!(!torn);
        assert_eq!(recs.len(), 1, "records survive even when snapshot dies");
    }

    #[test]
    fn deterministic_for_identical_inputs() {
        let mut a = MapJournal::new();
        let mut b = MapJournal::new();
        for i in 0..20u64 {
            let now = Nanos::from_us(i * 40);
            a.append(update(i), Nanos::ZERO, now);
            b.append(update(i), Nanos::ZERO, now);
        }
        let cut = Nanos::from_us(300);
        a.power_cut(cut);
        b.power_cut(cut);
        let ra = a.replayable(0);
        let rb = b.replayable(0);
        assert_eq!(ra, rb);
    }
}
