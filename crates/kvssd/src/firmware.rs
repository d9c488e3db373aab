//! Device-side key-value firmware.
//!
//! A log-structured value store: PUTs append `[key(16) | len(2)]` headers +
//! value bytes into a DRAM staging page, DELETEs append a header alone with
//! the tombstone length; full pages flush to the firmware's [`PageStore`]
//! (NAND through the FTL, or a DRAM log with NAND off). The key index lives
//! in device DRAM — a hash table for point lookups — and is rebuilt from the
//! on-media headers after a power cycle ([`FirmwareHandler::on_power_cycle`]).

use bx_hostsim::{Nanos, PAGE_SIZE};
use bx_nvme::{IoOpcode, Status, SubmissionEntry};
use bx_ssd::{CommandOutcome, DeviceDram, FirmwareCtx, FirmwareHandler, PageStore};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// Maximum key length (keys ride in CDW10–13).
pub(crate) const MAX_KEY_LEN: usize = 16;

/// Maximum value length (one log page minus the entry header).
pub const MAX_VALUE_LEN: usize = PAGE_SIZE - ENTRY_HEADER;

/// Per-entry on-media header: 16-byte padded key + 2-byte value length.
const ENTRY_HEADER: usize = MAX_KEY_LEN + 2;

/// The length field of a tombstone entry: a header with no value bytes that
/// deletes its key on replay.
const TOMBSTONE_LEN: u16 = u16::MAX;
// No value can have the tombstone's length.
const _: () = assert!(MAX_VALUE_LEN < TOMBSTONE_LEN as usize);

/// A key padded to the fixed wire width.
pub type PaddedKey = [u8; MAX_KEY_LEN];

/// Pads a key to the 16-byte wire format.
///
/// # Panics
///
/// Panics if the key exceeds 16 bytes (host API validates first).
pub fn pad_key(key: &[u8]) -> PaddedKey {
    assert!(key.len() <= MAX_KEY_LEN, "key too long");
    let mut out = [0u8; MAX_KEY_LEN];
    out[..key.len()].copy_from_slice(key);
    out
}

/// Reads the padded key out of a KV command's CDW10–13.
fn key_from_sqe(sqe: &SubmissionEntry) -> PaddedKey {
    let mut out = [0u8; MAX_KEY_LEN];
    for i in 0..4 {
        out[i * 4..i * 4 + 4].copy_from_slice(&sqe.cdw(10 + i).to_le_bytes());
    }
    out
}

/// Writes a padded key into a command's CDW10–13 (host side).
pub fn key_into_cdws(key: &PaddedKey, cdw10_15: &mut [u32; 6]) {
    for i in 0..4 {
        cdw10_15[i] =
            u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
    }
}

/// Where a value's bytes sit in the log: page `lpn`, byte offset `off`
/// within it. The page with `lpn == next_lpn` is the one being filled — it
/// is the DRAM staging page; every lower one has been flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ValueLoc {
    lpn: u64,
    off: u16,
    len: u16,
}

/// The key index: a padded key, read as one integer, to where its value
/// sits.
type KeyIndex = HashMap<u128, ValueLoc, BuildHasherDefault<KeyHasher>>;

/// The index key of a padded key.
fn index_key(key: &PaddedKey) -> u128 {
    u128::from_be_bytes(*key)
}

/// The index's hasher: the splitmix64 finalizer over the key's two halves.
/// Fixed, not seeded per process, so the table's layout repeats from run to
/// run. Keys come from the simulated host, so there is no adversary to
/// craft colliding ones.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    /// Not reached by the index's `u128` keys; total for the trait's sake.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = Self::mix(self.0 ^ u64::from(b));
        }
    }

    fn write_u128(&mut self, key: u128) {
        self.0 = Self::mix(key as u64 ^ Self::mix((key >> 64) as u64));
    }
}

/// Device-side operation counters, shared with the host store handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvDeviceStats {
    /// PUT commands handled.
    pub puts: u64,
    /// GET commands handled.
    pub gets: u64,
    /// GETs that found the key.
    pub hits: u64,
    /// DELETE commands handled.
    pub deletes: u64,
    /// Staging pages flushed to NAND.
    pub flushes: u64,
    /// Value bytes accepted.
    pub value_bytes_in: u64,
}

/// Firmware timing constants.
#[derive(Debug, Clone, PartialEq, Eq)]
struct KvTiming {
    /// Index lookup/insert cost.
    index_op: Nanos,
    /// Appending a value into the staging page.
    log_append: Nanos,
    /// Reading a staged value from device DRAM.
    dram_read: Nanos,
}

impl Default for KvTiming {
    fn default() -> Self {
        KvTiming {
            index_op: Nanos::from_ns(150),
            log_append: Nanos::from_ns(100),
            dram_read: Nanos::from_ns(200),
        }
    }
}

/// The key-value firmware personality.
#[derive(Debug)]
pub struct KvFirmware {
    /// Flushed log pages.
    pages: PageStore,
    /// Write-through durability: every PUT re-programs the partial staging
    /// page to NAND before acking, so acked values survive a power cut.
    durable_puts: bool,
    timing: KvTiming,
    index: KeyIndex,
    /// Staging page region in device DRAM, zero beyond `staging_used`.
    staging_off: usize,
    staging_used: usize,
    /// The log LPN the staging page will flush into.
    next_lpn: u64,
    stats: Rc<RefCell<KvDeviceStats>>,
}

impl KvFirmware {
    /// Creates the firmware, claiming its DRAM regions and sharing `stats`
    /// with the host-side handle. `nand_io = false` keeps the value log
    /// entirely in device DRAM (the paper's NAND-off measurement mode).
    pub fn with_stats(
        dram: &mut DeviceDram,
        nand_io: bool,
        stats: Rc<RefCell<KvDeviceStats>>,
    ) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "construction-time sizing bug, not a runtime state; DRAM capacity is a build parameter"
        )]
        let staging = dram
            .alloc_region("kv-staging", PAGE_SIZE)
            .expect("device DRAM too small for KV staging");
        let timing = KvTiming::default();
        KvFirmware {
            pages: PageStore::new(
                dram,
                "kv-dram-log",
                nand_io,
                timing.log_append,
                timing.dram_read,
            ),
            durable_puts: false,
            timing,
            index: KeyIndex::default(),
            staging_off: staging.offset,
            staging_used: 0,
            next_lpn: 0,
            stats,
        }
    }

    /// Enables write-through durable PUTs: before a PUT is acknowledged the
    /// partial staging page is re-programmed to the current log LPN, so the
    /// ack implies durability (the durable-linearizability contract). Costs
    /// a NAND program per PUT — the price the default volatile-staging mode
    /// avoids. With NAND off the write-through lands in the DRAM log, which
    /// is as volatile as the staging page: it buys nothing there.
    pub fn set_durable_puts(&mut self, on: bool) {
        self.durable_puts = on;
    }

    /// Flushes the staging page. Returns the completion instant.
    fn flush_staging(&mut self, ctx: &mut FirmwareCtx<'_>, now: Nanos) -> Result<Nanos, Status> {
        if self.staging_used == 0 {
            return Ok(now);
        }
        let done = self.program_staging(ctx, now)?;
        // Every index entry pointing into the staging page carries this
        // LPN already: moving the frontier is what makes them flushed.
        self.next_lpn += 1;
        // Zero what the fill wrote so recovery never replays stale entry
        // headers left over from it.
        ctx.dram
            .write(self.staging_off, &[0u8; PAGE_SIZE][..self.staging_used])
            .map_err(|_| Status::InternalError)?;
        self.staging_used = 0;
        self.stats.borrow_mut().flushes += 1;
        Ok(done)
    }

    /// Writes the staging page, as it stands, to the current log LPN,
    /// straight from device DRAM: the bytes staged so far, the rest of the
    /// page reading as zeros. Returns the completion instant.
    fn program_staging(&self, ctx: &mut FirmwareCtx<'_>, now: Nanos) -> Result<Nanos, Status> {
        self.pages
            .write_from_dram(ctx, self.next_lpn, self.staging_off, self.staging_used, now)
    }

    /// Appends one log entry — header plus `value` — to the staging page,
    /// flushing first if it does not fit. `len_field` is the value length,
    /// or [`TOMBSTONE_LEN`] with an empty `value`. Returns the entry's
    /// offset in the page and advances `now` past any flush.
    fn stage_entry(
        &mut self,
        ctx: &mut FirmwareCtx<'_>,
        key: &PaddedKey,
        len_field: u16,
        value: &[u8],
        now: &mut Nanos,
    ) -> Result<usize, Status> {
        let entry = ENTRY_HEADER + value.len();
        if self.staging_used + entry > PAGE_SIZE {
            *now = self.flush_staging(ctx, *now)?;
        }
        // On-media entry header enables index recovery after power cycles.
        let off = self.staging_used;
        let mut header = [0u8; ENTRY_HEADER];
        header[..MAX_KEY_LEN].copy_from_slice(key);
        header[MAX_KEY_LEN..].copy_from_slice(&len_field.to_le_bytes());
        ctx.dram
            .write(self.staging_off + off, &header)
            .and_then(|()| ctx.dram.write(self.staging_off + off + ENTRY_HEADER, value))
            .map_err(|_| Status::InternalError)?;
        self.staging_used += entry;
        Ok(off)
    }

    /// Write-through durability: land the partial staging page at the
    /// current log LPN before acking. The FTL journals the remap and the
    /// ack waits for `max(program done, record durable)`, so a later power
    /// cut can at worst fall back to the previous write-through of the same
    /// LPN — exactly the last acked state.
    fn write_through(&self, ctx: &mut FirmwareCtx<'_>, now: &mut Nanos) -> Result<(), Status> {
        if self.durable_puts {
            *now = self.program_staging(ctx, *now)?;
        }
        Ok(())
    }

    fn put(&mut self, ctx: &mut FirmwareCtx<'_>, key: PaddedKey, value: &[u8]) -> CommandOutcome {
        let mut now = ctx.now + self.timing.index_op + self.timing.log_append;
        // An empty key with an empty value would be an all-zero header,
        // which replay reads as the end of the page.
        if value.len() > MAX_VALUE_LEN || (key == [0u8; MAX_KEY_LEN] && value.is_empty()) {
            return CommandOutcome::fail(Status::KvInvalidSize, now);
        }
        let len = value.len() as u16;
        let off = match self.stage_entry(ctx, &key, len, value, &mut now) {
            Ok(off) => off,
            Err(s) => return CommandOutcome::fail(s, now),
        };
        self.index.insert(
            index_key(&key),
            ValueLoc {
                lpn: self.next_lpn,
                off: (off + ENTRY_HEADER) as u16,
                len,
            },
        );
        if let Err(s) = self.write_through(ctx, &mut now) {
            return CommandOutcome::fail(s, now);
        }
        let mut stats = self.stats.borrow_mut();
        stats.puts += 1;
        stats.value_bytes_in += value.len() as u64;
        CommandOutcome::ok(now)
    }

    fn get(&mut self, ctx: &mut FirmwareCtx<'_>, key: PaddedKey) -> CommandOutcome {
        let now = ctx.now + self.timing.index_op;
        self.stats.borrow_mut().gets += 1;
        let Some(loc) = self.index.get(&index_key(&key)).copied() else {
            return CommandOutcome::fail(Status::KvKeyNotFound, now);
        };
        self.stats.borrow_mut().hits += 1;
        let (off, len) = (loc.off as usize, loc.len as usize);
        let mut value = Vec::with_capacity(len);
        // The page being filled is the DRAM staging page.
        let done = if loc.lpn == self.next_lpn {
            ctx.dram
                .read(self.staging_off + off, len)
                .ok()
                .map(|bytes| {
                    value.extend_from_slice(bytes);
                    now + self.timing.dram_read
                })
        } else {
            self.pages
                .read_range(ctx, loc.lpn, off, len, now, &mut value)
                .ok()
        };
        let Some(done) = done else {
            return CommandOutcome::fail(Status::InternalError, now);
        };
        CommandOutcome {
            status: Status::Success,
            result: value.len() as u32,
            response: Some(value),
            complete_at: done,
        }
    }

    /// DELETE appends a tombstone through the PUT path — staged, flushed
    /// and written through alike — so replay drops the key as well. An
    /// absent key writes nothing.
    fn delete(&mut self, ctx: &mut FirmwareCtx<'_>, key: PaddedKey) -> CommandOutcome {
        let mut now = ctx.now + self.timing.index_op;
        self.stats.borrow_mut().deletes += 1;
        if !self.index.contains_key(&index_key(&key)) {
            return CommandOutcome::fail(Status::KvKeyNotFound, now);
        }
        now += self.timing.log_append;
        if let Err(s) = self.stage_entry(ctx, &key, TOMBSTONE_LEN, &[], &mut now) {
            return CommandOutcome::fail(s, now);
        }
        self.index.remove(&index_key(&key));
        match self.write_through(ctx, &mut now) {
            Ok(()) => CommandOutcome::ok(now),
            Err(s) => CommandOutcome::fail(s, now),
        }
    }

    /// Rebuilds the index by scanning entry headers in the persisted log
    /// below `next_lpn`. Only pages persisted to NAND survive a power loss;
    /// entries still in the DRAM staging page are honestly lost, matching
    /// the durability semantics of any volatile write buffer without a
    /// capacitor.
    ///
    /// Recovery replays entries in log order, so later PUTs win, like any
    /// log-structured store.
    fn recover_index(&mut self, ctx: &mut FirmwareCtx<'_>) {
        self.index.clear();
        let mut now = ctx.now;
        let mut page = Vec::with_capacity(PAGE_SIZE);
        for lpn in 0..self.next_lpn {
            page.clear();
            match self
                .pages
                .read_range(ctx, lpn, 0, PAGE_SIZE, now, &mut page)
            {
                Ok(t) => now = t,
                Err(_) => continue,
            }
            Self::replay_page(&mut self.index, &page, lpn);
        }
    }

    /// Replays the entries of log page `lpn` onto `index`. Tombstones remove
    /// their key.
    fn replay_page(index: &mut KeyIndex, page: &[u8], lpn: u64) {
        let mut off = 0;
        while off + ENTRY_HEADER <= page.len() {
            let mut key = [0u8; MAX_KEY_LEN];
            key.copy_from_slice(&page[off..off + MAX_KEY_LEN]);
            let len_field =
                u16::from_le_bytes([page[off + MAX_KEY_LEN], page[off + MAX_KEY_LEN + 1]]);
            off += ENTRY_HEADER;
            if len_field == TOMBSTONE_LEN {
                index.remove(&index_key(&key));
                continue;
            }
            let len = len_field as usize;
            if key == [0u8; MAX_KEY_LEN] && len == 0 {
                break; // end of log page
            }
            if off + len > page.len() {
                break; // torn entry
            }
            index.insert(
                index_key(&key),
                ValueLoc {
                    lpn,
                    off: off as u16,
                    len: len_field,
                },
            );
            off += len;
        }
    }
}

impl FirmwareHandler for KvFirmware {
    fn handle(
        &mut self,
        mut ctx: FirmwareCtx<'_>,
        sqe: &SubmissionEntry,
        payload: Option<&[u8]>,
    ) -> CommandOutcome {
        let key = key_from_sqe(sqe);
        match sqe.io_opcode() {
            Some(IoOpcode::KvPut) => {
                let Some(value) = payload else {
                    return CommandOutcome::fail(Status::InvalidField, ctx.now);
                };
                self.put(&mut ctx, key, value)
            }
            Some(IoOpcode::KvGet) => self.get(&mut ctx, key),
            Some(IoOpcode::KvDelete) => self.delete(&mut ctx, key),
            _ => CommandOutcome::fail(Status::InvalidOpcode, ctx.now),
        }
    }

    fn on_power_cycle(&mut self, mut ctx: FirmwareCtx<'_>) {
        // Volatile cursors are gone with DRAM. The log is written strictly
        // sequentially, so the persisted prefix IS the log, and its length
        // the LPN frontier.
        self.staging_used = 0;
        self.next_lpn = self.pages.persisted_prefix(&ctx);
        self.recover_index(&mut ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bx_ssd::{Ftl, NandArray, NandConfig};
    use std::collections::BTreeMap;

    struct Rig {
        nand: NandArray,
        ftl: Ftl,
        dram: DeviceDram,
        fw: KvFirmware,
    }

    fn rig(nand_io: bool) -> Rig {
        let nand = NandArray::new(NandConfig::small());
        let ftl = Ftl::new(&nand, 0.25);
        let mut dram = DeviceDram::new(4 << 20);
        let fw = KvFirmware::with_stats(&mut dram, nand_io, Default::default());
        Rig {
            nand,
            ftl,
            dram,
            fw,
        }
    }

    /// Runs one keyed command at virtual time `now`.
    fn key_cmd(
        r: &mut Rig,
        op: IoOpcode,
        key: &[u8],
        payload: Option<&[u8]>,
        now: Nanos,
    ) -> CommandOutcome {
        let mut sqe = SubmissionEntry::io(op, 1, 1);
        let mut cdws = [0u32; 6];
        key_into_cdws(&pad_key(key), &mut cdws);
        for (i, v) in cdws.iter().enumerate() {
            sqe.set_cdw(10 + i, *v);
        }
        if let Some(value) = payload {
            sqe.set_data_len(value.len() as u32);
        }
        let (fw, ctx) = r.at(now);
        fw.handle(ctx, &sqe, payload)
    }

    impl Rig {
        /// The firmware and the context to run it in at `now`.
        fn at(&mut self, now: Nanos) -> (&mut KvFirmware, FirmwareCtx<'_>) {
            let ctx = FirmwareCtx {
                nand: &mut self.nand,
                ftl: &mut self.ftl,
                dram: &mut self.dram,
                now,
            };
            (&mut self.fw, ctx)
        }

        /// A quiescent hard cut at `t`, FTL recovery, then `on_power_cycle`.
        fn power_cycle(&mut self, t: Nanos) {
            self.nand.power_cut(t);
            self.ftl.power_fail(t);
            self.dram.wipe();
            self.ftl.recover(&self.nand);
            let (fw, ctx) = self.at(t);
            fw.on_power_cycle(ctx);
        }
    }

    fn put(r: &mut Rig, key: &[u8], value: &[u8]) -> CommandOutcome {
        key_cmd(r, IoOpcode::KvPut, key, Some(value), Nanos::ZERO)
    }

    fn get(r: &mut Rig, key: &[u8]) -> CommandOutcome {
        key_cmd(r, IoOpcode::KvGet, key, None, Nanos::ZERO)
    }

    fn delete(r: &mut Rig, key: &[u8]) -> CommandOutcome {
        key_cmd(r, IoOpcode::KvDelete, key, None, Nanos::ZERO)
    }

    #[test]
    fn put_get_round_trip() {
        let mut r = rig(true);
        assert!(put(&mut r, b"alpha", b"value-1").status.is_success());
        let out = get(&mut r, b"alpha");
        assert!(out.status.is_success());
        assert_eq!(out.response.unwrap(), b"value-1");
        assert_eq!(out.result, 7);
    }

    #[test]
    fn get_missing_key() {
        let mut r = rig(true);
        assert_eq!(get(&mut r, b"nope").status, Status::KvKeyNotFound);
    }

    #[test]
    fn overwrite_returns_latest() {
        let mut r = rig(true);
        put(&mut r, b"k", b"old");
        put(&mut r, b"k", b"newer-value");
        assert_eq!(get(&mut r, b"k").response.unwrap(), b"newer-value");
    }

    #[test]
    fn staging_flushes_to_nand_and_reads_back() {
        let mut r = rig(true);
        // Fill well past one staging page.
        for i in 0..200u32 {
            let key = format!("key-{i:04}");
            let value = vec![(i % 256) as u8; 100];
            assert!(
                put(&mut r, key.as_bytes(), &value).status.is_success(),
                "{i}"
            );
        }
        assert!(r.fw.stats.borrow().flushes > 0);
        assert!(r.nand.stats().programs > 0);
        for i in (0..200u32).step_by(17) {
            let key = format!("key-{i:04}");
            let out = get(&mut r, key.as_bytes());
            assert!(out.status.is_success(), "{key}");
            assert_eq!(out.response.unwrap(), vec![(i % 256) as u8; 100]);
        }
    }

    #[test]
    fn nand_off_mode_still_correct() {
        let mut r = rig(false);
        for i in 0..200u32 {
            let key = format!("key-{i:04}");
            put(&mut r, key.as_bytes(), format!("val-{i}").as_bytes());
        }
        assert_eq!(r.nand.stats().programs, 0, "NAND untouched");
        let out = get(&mut r, b"key-0123");
        assert_eq!(out.response.unwrap(), b"val-123");
    }

    #[test]
    fn delete_removes_key() {
        let mut r = rig(true);
        put(&mut r, b"gone", b"v");
        assert!(delete(&mut r, b"gone").status.is_success());
        assert_eq!(get(&mut r, b"gone").status, Status::KvKeyNotFound);
    }

    #[test]
    fn delete_appends_a_tombstone_only_for_a_present_key() {
        let mut r = rig(true);
        put(&mut r, b"k", b"v");
        let used = r.fw.staging_used;
        assert_eq!(delete(&mut r, b"absent").status, Status::KvKeyNotFound);
        assert_eq!(r.fw.staging_used, used, "absent key: no log write");
        assert!(delete(&mut r, b"k").status.is_success());
        assert_eq!(r.fw.staging_used, used + ENTRY_HEADER);
        assert_eq!(delete(&mut r, b"k").status, Status::KvKeyNotFound);
        assert_eq!(r.fw.staging_used, used + ENTRY_HEADER);
        // The tombstone is a header with the reserved length and no value.
        let entry = r.dram.read(r.fw.staging_off + used, ENTRY_HEADER).unwrap();
        assert_eq!(entry[..MAX_KEY_LEN], pad_key(b"k"));
        assert_eq!(entry[MAX_KEY_LEN..], TOMBSTONE_LEN.to_le_bytes());
    }

    #[test]
    fn replay_applies_tombstones_in_log_order() {
        for durable in [true, false] {
            let mut r = rig(true);
            r.fw.set_durable_puts(durable);
            let mut t = Nanos::ZERO;
            let mut run = |r: &mut Rig, op, key: &[u8], value: Option<&[u8]>| {
                let out = key_cmd(r, op, key, value, t);
                assert!(out.status.is_success());
                t = out.complete_at;
            };
            run(&mut r, IoOpcode::KvPut, b"a", Some(b"1"));
            run(&mut r, IoOpcode::KvPut, b"b", Some(b"2"));
            run(&mut r, IoOpcode::KvDelete, b"a", None);
            // Flushes the page holding the tombstone.
            run(&mut r, IoOpcode::KvPut, b"pad", Some(&[3; 4030]));
            assert_eq!((r.fw.next_lpn, r.fw.staging_used), (1, ENTRY_HEADER + 4030));
            run(&mut r, IoOpcode::KvDelete, b"b", None); // tombstone still staged
            run(&mut r, IoOpcode::KvPut, b"a", Some(b"again")); // outlives the earlier tombstone
            assert_eq!(r.fw.next_lpn, 1);
            r.power_cycle(t);
            if durable {
                // The written-through frontier page is replayed last.
                assert_eq!(get(&mut r, b"a").response.unwrap(), b"again");
                assert_eq!(get(&mut r, b"b").status, Status::KvKeyNotFound);
                assert_eq!(r.fw.index.len(), 2, "a and pad");
            } else {
                // The staged tail is lost: b's tombstone and a's second PUT.
                assert_eq!(get(&mut r, b"a").status, Status::KvKeyNotFound);
                assert_eq!(get(&mut r, b"b").response.unwrap(), b"2");
            }
        }
    }

    #[test]
    fn dw0_is_the_response_length() {
        let mut r = rig(true);
        for i in 0..5u32 {
            put(
                &mut r,
                format!("k{i}").as_bytes(),
                &vec![1; 10 * i as usize],
            );
        }
        for i in 0..5u32 {
            let out = get(&mut r, format!("k{i}").as_bytes());
            assert_eq!(out.result as usize, out.response.unwrap().len(), "GET k{i}");
        }
    }

    #[test]
    fn oversized_value_rejected() {
        let mut r = rig(true);
        let out = put(&mut r, b"big", &vec![0; MAX_VALUE_LEN + 1]);
        assert_eq!(out.status, Status::KvInvalidSize);
    }

    #[test]
    fn index_recovery_after_power_cycle() {
        let mut r = rig(true);
        r.fw.set_durable_puts(true);
        let mut t = Nanos::ZERO;
        for i in 0..120u32 {
            let key = format!("key-{i:04}");
            let value = format!("value-{i}");
            t = key_cmd(
                &mut r,
                IoOpcode::KvPut,
                key.as_bytes(),
                Some(value.as_bytes()),
                t,
            )
            .complete_at;
        }
        let before = r.fw.index.len();
        r.power_cycle(t);
        assert_eq!(r.fw.index.len(), before);
        assert_eq!(get(&mut r, b"key-0077").response.unwrap(), b"value-77");
    }

    #[test]
    fn all_zero_entry_is_rejected_not_staged() {
        let mut r = rig(true);
        assert_eq!(put(&mut r, b"", b"").status, Status::KvInvalidSize);
        assert_eq!(r.fw.staging_used, 0);
        // Either half alone is a distinguishable header.
        assert!(put(&mut r, b"", b"v").status.is_success());
        assert!(put(&mut r, b"k", b"").status.is_success());
    }

    #[test]
    fn key_codec_round_trip() {
        let key = pad_key(b"hello-world!");
        let mut cdws = [0u32; 6];
        key_into_cdws(&key, &mut cdws);
        let mut sqe = SubmissionEntry::io(IoOpcode::KvGet, 1, 1);
        for (i, v) in cdws.iter().enumerate() {
            sqe.set_cdw(10 + i, *v);
        }
        assert_eq!(key_from_sqe(&sqe), key);
    }

    /// One step of the model-based test below.
    #[derive(Debug, Clone)]
    enum Step {
        Put(u8, usize),
        Get(u8),
        Delete(u8),
        /// A quiescent hard cut, FTL recovery, then `on_power_cycle`.
        PowerCycle,
    }

    fn steps() -> impl proptest::strategy::Strategy<Value = Vec<Step>> {
        use proptest::prelude::*;
        const KEYS: u8 = 10;
        // Small values pack many to a page; the large ones force a flush
        // every step or two.
        let len = prop_oneof![3 => 0usize..=80, 2 => 900usize..=MAX_VALUE_LEN];
        proptest::collection::vec(
            prop_oneof![
                8 => (0..KEYS, len).prop_map(|(k, l)| Step::Put(k, l)),
                6 => (0..KEYS).prop_map(Step::Get),
                3 => (0..KEYS).prop_map(Step::Delete),
                2 => Just(Step::PowerCycle),
            ],
            1..120,
        )
    }

    /// What the log must hold, kept the way the firmware used to keep it: a
    /// map of live values plus the set of keys whose newest entry is in the
    /// page still being filled.
    #[derive(Default)]
    struct Model {
        live: BTreeMap<u8, Vec<u8>>,
        /// `live` as of the last flush: what a lost staging page leaves.
        flushed: BTreeMap<u8, Vec<u8>>,
        staged: std::collections::BTreeSet<u8>,
        staging_used: usize,
    }

    impl Model {
        /// Accounts for one appended entry, flushing first if it would not
        /// fit.
        fn append(&mut self, value_len: usize) {
            if self.staging_used + ENTRY_HEADER + value_len > PAGE_SIZE {
                self.flush();
            }
            self.staging_used += ENTRY_HEADER + value_len;
        }

        fn flush(&mut self) {
            self.flushed = self.live.clone();
            self.staged.clear();
            self.staging_used = 0;
        }

        fn lose_staging(&mut self) {
            self.live = self.flushed.clone();
            self.staged.clear();
            self.staging_used = 0;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Values, DELETE statuses, the recovered key set and survival
        /// across power cycles match the model — and a GET costs a DRAM read exactly
        /// when the model says its entry has not been flushed.
        #[test]
        fn hash_log_matches_the_model(
            steps in steps(),
            nand_io in proptest::prelude::any::<bool>(),
            durable in proptest::prelude::any::<bool>(),
        ) {
            let mut r = rig(nand_io);
            r.fw.set_durable_puts(durable);
            let durable = durable && nand_io;
            let timing = KvTiming::default();
            let mut m = Model::default();
            let mut t = Nanos::ZERO;
            let key = |k: u8| [b'k', b'0' + k];
            for (i, step) in steps.into_iter().enumerate() {
                match step {
                    Step::Put(k, len) => {
                        let value = vec![(i as u8) | 1; len];
                        let out = key_cmd(&mut r, IoOpcode::KvPut, &key(k), Some(&value), t);
                        assert!(out.status.is_success(), "step {i}: {:?}", out.status);
                        t = out.complete_at;
                        m.append(len);
                        m.live.insert(k, value);
                        m.staged.insert(k);
                    }
                    Step::Get(k) => {
                        let out = key_cmd(&mut r, IoOpcode::KvGet, &key(k), None, t);
                        let Some(want) = m.live.get(&k) else {
                            assert_eq!(out.status, Status::KvKeyNotFound, "step {i}");
                            continue;
                        };
                        assert_eq!(out.response.as_ref(), Some(want), "step {i}");
                        let took = out.complete_at - t;
                        if m.staged.contains(&k) || !nand_io {
                            assert_eq!(took, timing.index_op + timing.dram_read, "step {i}");
                        } else {
                            assert!(took >= r.nand.config().read_latency, "step {i}: {took}");
                        }
                        t = out.complete_at;
                    }
                    Step::Delete(k) => {
                        let out = key_cmd(&mut r, IoOpcode::KvDelete, &key(k), None, t);
                        if m.live.contains_key(&k) {
                            assert!(out.status.is_success(), "step {i}: {:?}", out.status);
                            m.append(0);
                            m.live.remove(&k);
                            m.staged.remove(&k);
                        } else {
                            assert_eq!(out.status, Status::KvKeyNotFound, "step {i}");
                        }
                        t = out.complete_at;
                    }
                    Step::PowerCycle => {
                        r.power_cycle(t);
                        if durable {
                            // Every acked entry was written through; the
                            // partial page is now a flushed one.
                            m.flush();
                        } else if nand_io {
                            m.lose_staging();
                        } else {
                            // The DRAM log went with the DRAM.
                            m = Model::default();
                        }
                        // Replay adds no key the model lacks: the index's
                        // key set, not only its size, is the model's.
                        let mut got: Vec<u128> = r.fw.index.keys().copied().collect();
                        got.sort_unstable();
                        let want: Vec<u128> =
                            m.live.keys().map(|&k| index_key(&pad_key(&key(k)))).collect();
                        assert_eq!(got, want, "step {i}");
                    }
                }
                assert_eq!(r.fw.index.len(), m.live.len(), "step {i}");
                assert_eq!(r.fw.staging_used, m.staging_used, "step {i}");
            }
        }
    }
}
